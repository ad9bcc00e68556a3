package core

import (
	"recmem/internal/causal"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file is the operation side of the protocol (docs/adr/0026): every
// execution — a register's coalesced writes or reads, the §VI safe read, a
// pending write a recovery finishes, a recovery's own record — is one phase
// machine, query → mint → pre-log → propagate → done, which skips the phases
// its row (docs/adr/0025) and kind do not have. A machine does no I/O and
// reads no clock. Its host feeds it four inputs (an acknowledgement, the
// outcome of its log, a retransmission timeout, a crash) and carries out the
// output each step returns. The node steps its machines under nd.mu
// (rounds.go); the tests' driver steps them from a script.

// proc is what the machines of one process share: the row and the process's
// place in the system. The node embeds it.
type proc struct {
	proto  protocol // the row, with the node's Options resolved into it
	id     int32
	n      int
	quorum int // the majority ⌈(n+1)/2⌉
}

// execKind is what an execution does.
type execKind uint8

const (
	execWrite  execKind = iota // a register's coalesced writes (Fig. 4 lines 6–16; §VI)
	execRead                   // a register's coalesced reads (Fig. 4 lines 31–39)
	execSafe                   // §VI's safe read: one round, to the writer alone
	execFinish                 // a pending write a recovery finishes (Fig. 4 lines 40–47)
	execRecord                 // a recovery's own record: Fig. 5's rec, the incarnation
)

// phase is where an execution stands; advance goes through them in order.
type phase uint8

const (
	phaseStart phase = iota
	phaseIntent
	phaseQuery
	phaseMint
	phasePreLog
	phasePropagate
	phaseDone
)

// exec is one execution's phase machine; start resets it for reuse.
type exec struct {
	pr    *proc
	kind  execKind
	phase phase
	id    uint64 // the RPC of every request the execution sends
	op    uint64 // the operation the meters charge (0: none, a harness record)
	epoch uint64 // the host's crash generation the execution runs under
	reg   string
	rec   int32 // the recovery count a write mints with (Fig. 5 line 11)
	seen  int64 // the highest sequence number heard; §VI: the writer's own

	// What a write propagates or a read returns, how the execution failed,
	// its causal log chain so far, and the rounds it completed.
	val    []byte
	tag    tag.Tag
	err    error
	depth  int
	rounds int

	// The running round: its request, the acknowledgements it needs, and
	// those heard, indexed by sender (Kind 0: none yet).
	req     wire.Envelope
	need    int
	require int32 // a process that must be among them; -1: any
	acks    []wire.Envelope
	heard   int
	sweeps  int
	sweep   []wire.Envelope

	pre preLog // the record a log output asks the host to store
}

// preLog is a record of the process's own on its way to stable storage, with
// what the causal meter is told once it is stored (op 0: no causal log).
type preLog struct {
	rec   stable.Record
	op    uint64
	depth int
}

// output is what one step asks of its host, in this order: meter the round
// that ended, send the sweep and re-arm the retransmission timer, log pre,
// end the execution.
type output struct {
	round         bool
	sends, resent int
	send          []wire.Envelope
	log           bool
	done          bool
}

// start resets m to a new execution of kind for reg; m.acks must hold one
// slot per process. Before begin the host sets what the kind needs: val,
// rec and seen for a write, tag and val for a pending write, pre for a record.
func (m *exec) start(pr *proc, kind execKind, id, op, epoch uint64, reg string) {
	acks, sweep := m.acks, m.sweep
	clear(acks)
	clear(sweep[:cap(sweep)])
	*m = exec{pr: pr, kind: kind, id: id, op: op, epoch: epoch, reg: reg, require: -1, acks: acks, sweep: sweep[:0]}
}

// begin is the first step: it runs the execution up to its first wait.
func (m *exec) begin() output {
	var o output
	m.advance(&o)
	return o
}

// ack is the first input: an acknowledgement routed to m by its RPC. A late,
// duplicate or other-round one changes nothing.
func (m *exec) ack(env wire.Envelope) output {
	var o output
	if !m.waiting() || env.Kind != ackOf(m.req.Kind) || env.From < 0 || int(env.From) >= len(m.acks) || m.acks[env.From].Kind != 0 {
		return o
	}
	m.acks[env.From] = env
	m.heard++
	if m.heard < m.need || m.require >= 0 && m.acks[m.require].Kind == 0 {
		return o
	}
	o.round, o.sends, o.resent = true, m.sweeps*len(m.sweep), m.sweeps-1
	m.rounds++
	if m.phase == phaseQuery {
		m.queried()
	}
	m.advance(&o)
	return o
}

// logged is the second input: the outcome of m's log.
func (m *exec) logged(err error) output {
	var o output
	switch {
	case m.phase != phaseIntent && m.phase != phasePreLog:
	case err != nil:
		m.fail(&o, err)
	default:
		m.advance(&o)
	}
	return o
}

// timeout is the third input: a waiting round sends its sweep again — the
// paper's "repeat send … until receive" over fair-lossy channels.
func (m *exec) timeout() output {
	var o output
	if m.waiting() {
		m.resend(&o)
	}
	return o
}

// crash is the fourth input: the execution ends with ErrCrashed.
func (m *exec) crash() output {
	var o output
	if m.phase != phaseDone {
		m.fail(&o, ErrCrashed)
	}
	return o
}

// waiting reports whether m waits on a round's acknowledgements.
func (m *exec) waiting() bool { return m.phase == phaseQuery || m.phase == phasePropagate }

// fail ends m with err and no result.
func (m *exec) fail(o *output, err error) {
	m.phase, m.err, m.val, m.tag = phaseDone, err, nil, tag.Tag{}
	o.done = true
}

// advance begins the next phase m's row and kind have.
func (m *exec) advance(o *output) {
	p, reg := m.pr.proto, m.reg
	for {
		m.phase++
		switch m.phase {
		case phaseIntent:
			if m.kind == execWrite && p.everyStep {
				// §I-C straw man: log the intent before doing anything.
				m.log(o, stable.Record{Name: recWStartPrefix + reg, Data: encodeTagged(tag.Tag{Writer: m.pr.id}, m.val)})
				return
			}
		case phaseQuery:
			switch {
			case m.kind == execWrite && !p.singleWriter:
				// Fig. 4 lines 7–10. §VI's writer has its own view as seen.
				m.round(o, wire.Envelope{Kind: wire.KindSNQuery}, -1, m.pr.quorum, -1)
				return
			case m.kind == execRead:
				m.round(o, wire.Envelope{Kind: wire.KindRead}, -1, m.pr.quorum, -1)
				return
			case m.kind == execSafe:
				m.round(o, wire.Envelope{Kind: wire.KindRead}, RegularWriter, 1, RegularWriter)
				return
			}
		case phaseMint:
			if m.kind == execWrite {
				m.tag = m.pr.mint(m.seen, m.rec)
			}
		case phasePreLog:
			switch {
			case m.kind == execWrite && p.preLog:
				// Fig. 4 line 12: lets recovery finish the write and pins the
				// minted tag to this value; a coalesced batch logs it once.
				m.log(o, stable.Record{Name: recWritingPrefix + reg, Data: encodeTagged(m.tag, m.val)})
				return
			case m.kind == execRead && p.everyStep:
				// Straw man: the reader logs what it is about to write back.
				m.log(o, stable.Record{Name: recWStartPrefix + reg, Data: encodeTagged(m.tag, m.val)})
				return
			case m.kind == execRecord:
				o.log = true
				return
			}
		case phasePropagate:
			switch m.kind {
			case execWrite, execFinish:
				// Fig. 4 lines 13–15. §VI's round needs the writer's own
				// ack: its listener logged the tag by then, which keeps its
				// timestamps monotone across crashes.
				require := int32(-1)
				if m.kind == execWrite && p.singleWriter {
					require = m.pr.id
				}
				m.round(o, wire.Envelope{Kind: wire.KindWrite, Tag: m.tag, Value: m.val}, -1, m.pr.quorum, require)
				return
			case execRead:
				// Write back so the result survives a partial propagation.
				m.round(o, wire.Envelope{Kind: wire.KindWriteBack, Tag: m.tag, Value: m.val}, -1, m.pr.quorum, -1)
				return
			}
		case phaseDone:
			o.done = true
			return
		}
	}
}

// queried folds round 1 into the execution: a write takes the highest
// sequence number (Fig. 4 line 10) and the deepest causal chain, a read the
// highest tag and its value (line 35). A read skips the write-back where
// none is due: §VI's reads, and under proto.oneRound an agreeing majority,
// which holds the tag logged already (docs/adr/0015).
func (m *exec) queried() {
	if m.kind == execWrite {
		for _, a := range m.acks {
			if a.Kind == 0 {
				continue
			}
			m.depth = max(m.depth, int(a.Depth))
			m.seen = max(m.seen, a.Tag.Seq)
		}
		return
	}
	best := m.bestAck()
	m.val, m.tag = best.Value, best.Tag
	if m.kind == execSafe || m.pr.proto.singleWriter || m.pr.proto.oneRound && m.acksAgree() {
		m.phase = phasePropagate // advance goes on to done
	}
}

// bestAck returns the acknowledgement carrying the lexicographically highest
// tag (Fig. 4 line 35: "select v with highest [sn, pid]"). Equal tags go to
// the lowest responder, so the choice never depends on arrival order: under
// the literal Fig. 5 one tag can carry two values (docs/adr/0024), and a read
// that hears both must return the same one on every replay.
func (m *exec) bestAck() wire.Envelope {
	var best wire.Envelope
	for _, a := range m.acks {
		if a.Kind != 0 && (best.Kind == 0 || best.Tag.Less(a.Tag)) {
			best = a
		}
	}
	return best
}

// acksAgree reports whether every acknowledgement heard carries exactly the
// best tag — the majority the read heard is unanimous.
func (m *exec) acksAgree() bool {
	for _, a := range m.acks {
		if a.Kind != 0 && a.Tag != m.tag {
			return false
		}
	}
	return true
}

// round sends req to process to (-1: all) until need processes, require
// among them, acknowledge it.
func (m *exec) round(o *output, req wire.Envelope, to int32, need int, require int32) {
	req.RPC, req.Op, req.Reg, req.Depth = m.id, m.op, m.reg, uint8(m.depth)
	m.req, m.need, m.require, m.heard, m.sweeps = req, need, require, 0, 0
	clear(m.acks)
	first, last := int32(0), int32(m.pr.n)-1
	if to >= 0 {
		first, last = to, to
	}
	m.sweep = m.sweep[:0]
	for to := first; to <= last; to++ {
		req.To = to
		m.sweep = append(m.sweep, req)
	}
	m.resend(o)
}

// resend asks for the round's sweep to be sent (again).
func (m *exec) resend(o *output) {
	m.sweeps++
	o.send = m.sweep
}

// log asks for rec to be stored as the next link of the causal chain.
func (m *exec) log(o *output, rec stable.Record) {
	m.depth = causal.After(m.depth)
	m.pre = preLog{rec: rec, op: m.op, depth: m.depth}
	o.log = true
}

// mint computes a write's timestamp from the highest sequence number seen,
// through tag.Next: Fig. 4 line 11's sn + 1, or under proto.recMint Fig. 5
// line 11's sn + rec + 1, the recovery count standing in for the pre-log (rec
// is 0 on every other row). proto.hardened adds rec as the Rec tiebreak
// (docs/adr/0024).
func (pr *proc) mint(maxSeq int64, rec int32) tag.Tag {
	if pr.proto.hardened {
		return tag.Tag{Seq: maxSeq}.Next(pr.id, int64(rec), rec)
	}
	return tag.Tag{Seq: maxSeq}.Next(pr.id, int64(rec), 0)
}

// ackOf is the acknowledgement kind that answers a request kind.
func ackOf(k wire.Kind) wire.Kind {
	switch k {
	case wire.KindSNQuery:
		return wire.KindSNAck
	case wire.KindRead:
		return wire.KindReadAck
	}
	return wire.KindWriteAck
}
