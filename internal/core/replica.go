package core

import (
	"recmem/internal/causal"
	"recmem/internal/stable"
	"recmem/internal/wire"
)

// This file is the replica side of the protocol (docs/adr/0026): Fig. 4
// lines 17–30, with their Fig. 5, §I-C and §VI forms read off the row
// (docs/adr/0025), as pure functions of the row and of the register's view,
// which the host has already materialized (regView). The host owns the rest:
// the listener answers what may be answered at once, and the logger stores
// the records and only then applies the views and sends the replies.

// inline reports whether a request of kind k is answered at once from the
// view: a read (Fig. 4 line 28), which never logs, and a sequence-number
// query (line 18) except §I-C's, which logs every step. Every other kind goes
// through the node's logger.
func (p protocol) inline(k wire.Kind) bool {
	return k == wire.KindRead || k == wire.KindSNQuery && !p.everyStep
}

// adopt returns the view after env: a W or WB carrying a higher timestamp
// replaces it (Fig. 4 lines 22–23), and nothing else changes it.
func (p protocol) adopt(cur regState, env wire.Envelope) regState {
	if (env.Kind == wire.KindWrite || env.Kind == wire.KindWriteBack) && cur.tag.Less(env.Tag) {
		return regState{tag: env.Tag, val: env.Value}
	}
	return cur
}

// replica handles one request at a replica whose view is cur. It returns the
// view after it, the reply, and the record that must be durable before that
// reply leaves (an empty Name: none). An SN query is answered with the tag
// (lines 18–20), a read with the tag and value (lines 28–30), a W or WB with
// an acknowledgement (lines 21–27). What logs is the row's:
//   - a W or WB that adopts logs written/ (line 24) on every durable row —
//     a read's write-back too, which Theorem 2 requires (docs/adr/0027);
//   - §I-C logs every W, WB and SN query, each writing the register's
//     resulting state;
//   - crash-stop logs nothing, and no read ever logs.
//
// A logged reply is one log deeper in its causal chain.
func (p protocol) replica(cur regState, env wire.Envelope) (regState, wire.Envelope, stable.Record) {
	next := p.adopt(cur, env)
	reply := wire.Envelope{
		Kind: ackOf(env.Kind), To: env.From, Reg: env.Reg, RPC: env.RPC, Op: env.Op, Depth: env.Depth,
	}
	var rec stable.Record
	switch env.Kind {
	case wire.KindRead:
		reply.Tag, reply.Value = cur.tag, cur.val
		return next, reply, rec
	case wire.KindSNQuery:
		reply.Tag = cur.tag
		if p.everyStep {
			rec = stable.Record{Name: recSNLogPrefix + env.Reg, Data: encodeTagged(cur.tag, nil)}
		}
	case wire.KindWrite, wire.KindWriteBack:
		if p.durable && (p.everyStep || next.tag != cur.tag) {
			rec = stable.Record{Name: recWrittenPrefix + env.Reg, Data: encodeTagged(next.tag, next.val)}
		}
	}
	if rec.Name != "" {
		reply.Depth = uint8(causal.After(int(env.Depth)))
	}
	return next, reply, rec
}
