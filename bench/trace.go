package main

import (
	"os"
	"path/filepath"
	"slices"
	"time"
)

// layerMetric says how one per-layer metric is read out of the analysis: a
// timing is the median of its samples scaled by div; a count is taken as it
// is. The list is BENCHMARK.json's per_layer, in its order.
type layerMetric struct {
	name   string
	unit   string
	timing string  // sample series to take the median of; "" for a count
	div    float64 // nanoseconds per unit
}

var layerMetrics = []layerMetric{
	{"remote.ingress_us", "us", "remote.ingress_us", 1e3},
	{"remote.egress_us", "us", "remote.egress_us", 1e3},
	{"remote.client_submit_ns", "ns", "remote.client_submit_ns", 1},
	{"remote.reply_frames_per_burst", "count", "", 0},
	{"remote.deadline_drops", "count", "", 0},
	{"remote.redial_ms", "ms", "remote.redial_ms", 1e6},
	{"core.round1_us", "us", "core.round1_us", 1e3},
	{"core.round2_us", "us", "core.round2_us", 1e3},
	{"core.replica_turnaround_us", "us", "core.replica_turnaround_us", 1e3},
	{"core.rounds_per_op", "count", "", 0},
	{"core.retransmits_per_kop", "count", "", 0},
	{"core.recover_ms", "ms", "core.recover_ms", 1e6},
	{"core.recover_pending_writes", "count", "core.recover_pending_writes", 1},
	{"nettcp.send_call_ns", "ns", "nettcp.send_call_ns", 1},
	{"nettcp.oneway_us", "us", "nettcp.oneway_us", 1e3},
	{"nettcp.frames_per_op", "count", "", 0},
	{"nettcp.envelopes_per_frame", "count", "", 0},
	{"nettcp.bytes_per_op", "B", "", 0},
	{"wire.encode_ns_per_env", "ns", "", 0},
	{"wire.decode_ns_per_env", "ns", "", 0},
	{"stable.prelog_us", "us", "stable.prelog_us", 1e3},
	{"stable.adopt_us", "us", "stable.adopt_us", 1e3},
	{"stable.store_calls_per_op", "count", "", 0},
	{"stable.records_per_call", "count", "", 0},
	{"stable.syncs_per_op", "count", "", 0},
	{"stable.records_per_sync", "count", "", 0},
	{"stable.bytes_per_op", "B", "", 0},
	{"stable.disk_bytes_per_op", "B", "", 0},
	{"stable.retrieves_per_op", "count", "", 0},
	{"stable.retrieve_us", "us", "stable.retrieve_us", 1e3},
	{"stable.open_ms", "ms", "stable.open_ms", 1e6},
	{"stable.compactions", "count", "", 0},
	{"procfault.exec_ms", "ms", "procfault.exec_ms", 1e6},
	{"bench.generator_lag_p99_us", "us", "", 0},
	{"bench.between_rounds_us", "us", "bench.between_rounds_us", 1e3},
	{"bench.unattributed_pct", "%", "bench.unattributed_pct_x100", 100},
	{"bench.traced_write_p50_us", "us", "bench.traced_write_us", 1e3},
	{"bench.traced_read_p50_us", "us", "bench.traced_read_us", 1e3},
	{"bench.trace_overhead_pct", "%", "", 0},
	{"outage_ms", "ms", "outage_ms", 1e6},
	{"write_p99_us", "us", "", 0},
	{"read_p99_us", "us", "", 0},
	{"failed_share", "share", "", 0},
}

// traceSlices is how many slices a traced window is cut into. After each,
// the reference mesh runs a slice of the same length, so both see the same
// machine: this box's speed drifts by ten per cent over tens of seconds, and
// two passes one after the other would measure the drift, not the tracing.
const traceSlices = 6

// traced produces a workload's per-layer metrics. Half the time goes to the
// workload against this binary in its node role, with the transport and
// storage seams wrapped; the other half, interleaved, to a reference mesh of
// real recmem-node processes. The difference between the two medians is
// what tracing costs.
func traced(o options, s spec, rep *report) ([]*run, error) {
	window := time.Duration(o.seconds) * time.Second
	ref, err := bootAndWarm(o, s, meshConfig{root: o.root, disk: s.disk, planted: s.planted, stale: -1})
	if err != nil {
		return nil, err
	}
	defer ref.m.stop()
	if err := ref.begin(); err != nil {
		return nil, err
	}
	outDir, err := os.MkdirTemp(filepath.Join(o.root, ".bench_build"), "spans-")
	if err != nil {
		return nil, err
	}
	onExit(func() { os.RemoveAll(outDir) })
	defer os.RemoveAll(outDir)
	r, err := bootAndWarm(o, s, meshConfig{root: o.root, disk: s.disk, planted: s.planted, stale: -1, traced: true, outDir: outDir})
	if err != nil {
		return nil, err
	}
	defer r.m.stop()
	kills := min(s.killCycles, 1) // per slice, on both meshes
	err = r.measure(plan{window: window / 2, slices: traceSlices, kills: kills * traceSlices, codas: s.codaCycles,
		between: func(p int) error {
			dur := time.Duration(float64(window/2) * s.phases[p].share)
			return ref.slice(p, dur/traceSlices, kills)
		}})
	if err != nil {
		return nil, err
	}

	in := traceInput{start: r.phaseStart[0].UnixNano(), end: r.phaseEnd[0].UnixNano(),
		acked: r.ackedPrimary, writes: r.writesPrimary, cycles: r.cycles, diskGrowth: r.diskGrowth}
	if in.files, in.events, in.boots, err = loadTrace(outDir); err != nil {
		return nil, err
	}
	for _, cl := range r.cl {
		in.spans = append(in.spans, cl.spans...)
		in.lag = append(in.lag, cl.lag...)
	}
	ls := analyze(in)

	// Tracing overhead, on the median of the operation the workload is
	// named after (writes where it has them).
	series := func(x *run) []int64 {
		var w, rd []int64
		for _, cl := range x.cl {
			w, rd = append(w, cl.lat[0].write...), append(rd, cl.lat[0].read...)
		}
		if len(w) > 0 {
			return w
		}
		return rd
	}
	refP50, tracedP50 := summarize(series(ref), 1e3).p50, summarize(series(r), 1e3).p50
	ls.counts["bench.trace_overhead_pct"] = (tracedP50 - refP50) / refP50 * 100
	slices.Sort(in.lag)
	ls.counts["bench.generator_lag_p99_us"] = float64(percentile(in.lag, 99)) / 1e3
	for _, cy := range r.cycles {
		ls.add("outage_ms", int64(cy.served.Sub(cy.killed)))
	}
	// The tails come from the reference mesh: end-to-end numbers of the real
	// binary, kept off the bounded list because no run length steadies them.
	refW, refR := latencies([]*run{ref})
	ls.counts["write_p99_us"], ls.counts["read_p99_us"] = refW.p99, refR.p99
	ls.counts["failed_share"] = float64(r.failed.Load()+ref.failed.Load()) / float64(max(r.attempted.Load()+ref.attempted.Load(), 1))

	var total int64
	for _, v := range ls.budget {
		total += v
	}
	for i, name := range stageNames {
		if ls.budgetOps > 0 {
			rep.Stages = append(rep.Stages, stage{name, float64(ls.budget[i]) / float64(ls.budgetOps) / 1e3,
				float64(ls.budget[i]) / float64(total)})
		}
	}
	for _, lm := range layerMetrics {
		v := value{Unit: lm.unit}
		if lm.timing == "" {
			v.Value = ls.counts[lm.name]
		} else {
			d := summarize(ls.samples[lm.timing], lm.div)
			v.Value, v.N = d.p50, d.n
		}
		rep.Metrics[lm.name] = v
	}
	return []*run{r, ref}, nil
}
