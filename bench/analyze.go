package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"

	"recmem/internal/wire"
)

// roundKey names one quorum round: RPC ids are minted per process, so a
// round is the pair of the node that started it and its id.
type roundKey struct {
	contact int8
	rpc     uint64
}

// round is everything the three nodes' events say about one quorum round.
// Times are Unix nanoseconds; zero means "never seen".
type round struct {
	kind      wire.Kind
	op        uint64
	firstSend int64 // start of the call that first carried the request
	sends     int   // request envelopes handed to the endpoint, all sweeps
	reqSend   [numNodes]int64
	reqRecv   [numNodes]int64
	ackSend   [numNodes]int64
	ackRecv   [numNodes]int64
}

// quorumAt is when the quorum-th distinct acknowledgement arrived.
func (r *round) quorumAt() int64 {
	acks := make([]int64, 0, numNodes)
	for _, t := range r.ackRecv {
		if t != 0 {
			acks = append(acks, t)
		}
	}
	const quorum = numNodes/2 + 1
	if len(acks) < quorum {
		return 0
	}
	slices.Sort(acks)
	return acks[quorum-1]
}

func first(dst *int64, t int64) {
	if *dst == 0 || t < *dst {
		*dst = t
	}
}

// joinRounds folds envelope events into rounds. Requests are keyed by their
// sender, acknowledgements by their receiver: both are the contact node.
func joinRounds(events []event) map[roundKey]*round {
	rounds := make(map[roundKey]*round)
	get := func(contact int8, e event) *round {
		k := roundKey{contact, e.RPC}
		r := rounds[k]
		if r == nil {
			r = &round{}
			rounds[k] = r
		}
		return r
	}
	for _, e := range events {
		if e.Kind != evSend && e.Kind != evRecv {
			continue
		}
		if e.From < 0 || e.From >= numNodes || e.To < 0 || e.To >= numNodes {
			continue
		}
		kind := wire.Kind(e.Class)
		switch {
		case !kind.IsAck() && e.Kind == evSend:
			r := get(e.From, e)
			r.kind, r.op = kind, e.Op
			r.sends++
			first(&r.firstSend, e.Start)
			first(&r.reqSend[e.To], e.Start)
		case !kind.IsAck():
			first(&get(e.From, e).reqRecv[e.To], e.Start)
		case e.Kind == evSend:
			first(&get(e.To, e).ackSend[e.From], e.Start)
		default:
			first(&get(e.To, e).ackRecv[e.From], e.Start)
		}
	}
	return rounds
}

// interval is a span's extent, for self-time arithmetic.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover;
// overlapping children are not counted twice.
func selfTime(parent interval, children []interval) int64 {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b interval) int { return int(a.start - b.start) })
	covered, at := int64(0), parent.start
	for _, c := range cs {
		s, e := max(c.start, at), min(c.end, parent.end)
		if e > s {
			covered += e - s
			at = e
		}
	}
	return parent.end - parent.start - covered
}

// layerStats is what the traced pass yields: timing samples in nanoseconds
// and plain counts, by metric name, before they are scaled into units.
type layerStats struct {
	samples map[string][]int64
	counts  map[string]float64
	// budget sums, over the operations whose spans joined, the stages that
	// partition an operation's latency: unlike medians, sums add up.
	budget    [len(stageNames)]int64
	budgetOps int64
}

// stageNames are the consecutive stages of one operation as the spans see
// it. "between rounds, unclaimed" is what is left of the time between the
// two rounds once the writer's pre-log is taken out: engine and outbox time.
var stageNames = [...]string{"remote.ingress", "core.round1", "stable.prelog",
	"between rounds, unclaimed", "core.round2", "remote.egress"}

func (ls *layerStats) add(name string, v int64) { ls.samples[name] = append(ls.samples[name], v) }

func isRound1(k wire.Kind) bool { return k == wire.KindSNQuery || k == wire.KindRead }

// traceInput is what the analysis joins.
type traceInput struct {
	files      []nodeFile
	events     [][]event // per file
	boots      []bootRecord
	spans      []clientSpan
	start, end int64 // the first phase of the window
	acked      int64 // operations acknowledged in it
	writes     int64
	cycles     []cycle
	lag        []int64
	diskGrowth int64
}

func loadTrace(dir string) (files []nodeFile, events [][]event, boots []bootRecord, err error) {
	names, _ := filepath.Glob(filepath.Join(dir, "spans-n*.bin"))
	for _, name := range names {
		head, evs, err := readNodeFile(name)
		if err != nil {
			return nil, nil, nil, err
		}
		files, events = append(files, head), append(events, evs)
	}
	names, _ = filepath.Glob(filepath.Join(dir, "boot-n*.json"))
	for _, name := range names {
		var b bootRecord
		data, err := os.ReadFile(name)
		if err == nil {
			err = json.Unmarshal(data, &b)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		boots = append(boots, b)
	}
	return files, events, boots, nil
}

// analyze computes the per-layer metrics of one traced pass.
func analyze(in traceInput) *layerStats {
	ls := &layerStats{samples: map[string][]int64{}, counts: map[string]float64{}}
	inWindow := func(e event) bool { return e.Start >= in.start && e.End <= in.end }
	ops := float64(max(in.acked, 1))

	var all []event
	for _, evs := range in.events {
		for _, e := range evs {
			if inWindow(e) {
				all = append(all, e)
			}
		}
	}

	// nettcp and wire: calls, frames, bytes; stable: calls, records, bytes.
	var frames, envsInFrames, frameBytes, storeCalls, storeRecs, storeBytes, retrieves float64
	type logKey struct {
		node int8
		reg  string
	}
	prelogs := map[logKey][]interval{} // writing/ records by node and register, for the stage join
	for i, evs := range in.events {
		for _, e := range evs {
			if !inWindow(e) {
				continue
			}
			switch e.Kind {
			case evSendCall:
				ls.add("nettcp.send_call_ns", e.End-e.Start)
				if e.To != e.Node {
					frames++
					envsInFrames += float64(e.Count)
					frameBytes += float64(e.Bytes)
				}
			case evStoreCall:
				storeCalls++
				storeRecs += float64(e.Count)
				storeBytes += float64(e.Bytes)
				switch e.Class {
				case recWriting:
					ls.add("stable.prelog_us", e.End-e.Start)
				case recWritten:
					ls.add("stable.adopt_us", e.End-e.Start)
				}
			case evStore:
				if e.Class == recWriting {
					k := logKey{e.Node, in.files[i].Names[e.Reg]} // register ids are per file
					prelogs[k] = append(prelogs[k], interval{e.Start, e.End})
				}
			case evRetrieve:
				retrieves++
				ls.add("stable.retrieve_us", e.End-e.Start)
			}
		}
	}
	ls.counts["nettcp.frames_per_op"] = frames / ops
	ls.counts["nettcp.envelopes_per_frame"] = ratio(envsInFrames, frames)
	ls.counts["nettcp.bytes_per_op"] = frameBytes / ops
	ls.counts["stable.store_calls_per_op"] = storeCalls / ops
	ls.counts["stable.records_per_call"] = ratio(storeRecs, storeCalls)
	ls.counts["stable.bytes_per_op"] = storeBytes / ops
	ls.counts["stable.retrieves_per_op"] = retrieves / ops
	ls.counts["stable.disk_bytes_per_op"] = ratio(float64(in.diskGrowth), float64(in.writes))

	// Counters: the readings nearest the window's two ends, per incarnation.
	var syncs, appended, bursts, replies, drops, compactions float64
	var encNS, decNS, codecEnvs float64
	for _, f := range in.files {
		a, b := nearest(f.Snapshots, in.start), nearest(f.Snapshots, in.end)
		if a.T >= b.T {
			a = counters{} // this incarnation booted inside the window: count from its start
		}
		syncs += float64(b.Syncs - a.Syncs)
		appended += float64(b.Appended - a.Appended)
		compactions += float64(b.Compaction - a.Compaction)
		bursts += float64(b.ReplyBursts - a.ReplyBursts)
		replies += float64(b.ReplyFrames - a.ReplyFrames)
		drops += float64(b.DeadlineDrops - a.DeadlineDrops)
		encNS += f.EncodeNS * float64(f.CodecEnvs)
		decNS += f.DecodeNS * float64(f.CodecEnvs)
		codecEnvs += float64(f.CodecEnvs)
	}
	ls.counts["stable.syncs_per_op"] = syncs / ops
	ls.counts["stable.records_per_sync"] = ratio(appended, syncs)
	ls.counts["stable.compactions"] = compactions
	ls.counts["remote.reply_frames_per_burst"] = ratio(replies, bursts)
	ls.counts["remote.deadline_drops"] = drops
	ls.counts["wire.encode_ns_per_env"] = ratio(encNS, codecEnvs)
	ls.counts["wire.decode_ns_per_env"] = ratio(decNS, codecEnvs)

	// core and nettcp: rounds.
	rounds := joinRounds(all)
	byOp := map[roundKey][]*round{} // rounds of one server-side operation, keyed (contact, op)
	var retransmits float64
	for k, r := range rounds {
		q := r.quorumAt()
		if r.firstSend == 0 || q == 0 {
			continue // cut by the window's edge or by a kill
		}
		name := "core.round2_us"
		if isRound1(r.kind) {
			name = "core.round1_us"
		}
		ls.add(name, q-r.firstSend)
		retransmits += float64(max(0, r.sends/numNodes-1))
		for n := range int8(numNodes) {
			// Turnaround is reported for round 2, the one that holds the
			// replica's adoption log; round 1 is answered from memory.
			if !isRound1(r.kind) && r.reqRecv[n] != 0 && r.ackSend[n] != 0 {
				ls.add("core.replica_turnaround_us", r.ackSend[n]-r.reqRecv[n])
			}
			if n == k.contact {
				continue // delivered in-process, never on a socket
			}
			if r.reqSend[n] != 0 && r.reqRecv[n] != 0 {
				ls.add("nettcp.oneway_us", r.reqRecv[n]-r.reqSend[n])
			}
			if r.ackSend[n] != 0 && r.ackRecv[n] != 0 {
				ls.add("nettcp.oneway_us", r.ackRecv[n]-r.ackSend[n])
			}
		}
		ok := roundKey{k.contact, r.op}
		byOp[ok] = append(byOp[ok], r)
	}
	ls.counts["core.rounds_per_op"] = float64(countComplete(rounds)) / ops
	ls.counts["core.retransmits_per_kop"] = retransmits / ops * 1000

	// remote: the client's span joined with its operation's two rounds. Only
	// the operation that carried a coalesced batch shares its id with the
	// rounds, so on pipelined workloads this is a sample of carriers.
	for _, sp := range in.spans {
		if sp.submit < in.start || sp.done > in.end {
			continue
		}
		rs := byOp[roundKey{sp.client, sp.op}] // client c talks to node c
		if len(rs) != 2 {
			continue
		}
		r1, r2 := rs[0], rs[1]
		if !isRound1(r1.kind) {
			r1, r2 = r2, r1
		}
		q1, q2 := r1.quorumAt(), r2.quorumAt()
		total := sp.done - sp.submit
		ingress, egress, gap := r1.firstSend-sp.submit, sp.done-q2, r2.firstSend-q1
		if ingress < 0 || egress < 0 || gap < 0 || total <= 0 {
			continue
		}
		ls.add("remote.ingress_us", ingress)
		ls.add("remote.egress_us", egress)
		if sp.submitted != 0 {
			ls.add("remote.client_submit_ns", sp.submitted-sp.submit)
		}
		// Between the rounds sits the writer's pre-log, if the operation has
		// one; what it does not cover is time nobody's span claims.
		var logs []interval
		for _, pl := range prelogs[logKey{sp.client, regName(sp.reg)}] {
			if pl.start >= q1 && pl.end <= r2.firstSend {
				logs = append(logs, pl)
			}
		}
		unclaimed := selfTime(interval{q1, r2.firstSend}, logs)
		for i, v := range [...]int64{ingress, q1 - r1.firstSend, gap - unclaimed, unclaimed, q2 - r2.firstSend, egress} {
			ls.budget[i] += v
		}
		ls.budgetOps++
		ls.add("bench.between_rounds_us", gap)
		ls.add("bench.unattributed_pct_x100", unclaimed*10000/total)
		kind := "read"
		if sp.write {
			kind = "write"
		}
		ls.add("bench.traced_"+kind+"_us", total)
	}

	// Restarts: each victim incarnation after the first wrote a boot record.
	var bootsOfVictim []bootRecord
	for _, b := range in.boots {
		if b.Node == victim {
			bootsOfVictim = append(bootsOfVictim, b)
		}
	}
	slices.SortFunc(bootsOfVictim, func(a, b bootRecord) int { return int(a.ProcStart - b.ProcStart) })
	for _, cy := range in.cycles {
		for _, b := range bootsOfVictim {
			if b.Epoch != cy.epoch {
				continue
			}
			ls.add("procfault.exec_ms", b.ProcStart-cy.killed.UnixNano())
			ls.add("stable.open_ms", b.OpenNS)
			ls.add("core.recover_ms", b.RecoverNS)
			ls.add("core.recover_pending_writes", int64(b.PendingWrites))
		}
		if !cy.pingable.IsZero() && !cy.connected.IsZero() {
			ls.add("remote.redial_ms", int64(cy.connected.Sub(cy.pingable)))
		}
	}
	ls.samples["bench.generator_lag_us"] = in.lag
	return ls
}

func countComplete(rounds map[roundKey]*round) int {
	n := 0
	for _, r := range rounds {
		if r.firstSend != 0 && r.quorumAt() != 0 {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nearest returns the counter reading taken closest to t.
func nearest(snaps []counters, t int64) counters {
	var best counters
	for i, s := range snaps {
		if i == 0 || abs(s.T-t) < abs(best.T-t) {
			best = s
		}
	}
	return best
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
