package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// loopKind is how a workload offers load.
type loopKind int

const (
	// closedSync: each client has one synchronous operation in flight.
	closedSync loopKind = iota
	// closedWindow: each client keeps a fixed window of futures in flight.
	closedWindow
	// openLoop: each client issues on a fixed schedule, whatever the
	// system does; latency counts from the time an operation was due.
	openLoop
)

// phase is one stretch of a workload's timed window.
type phase struct {
	share      float64 // of the window
	writeShare float64 // probability that an operation is a write
}

// spec is one workload. Names are fixed: later issues cite them.
type spec struct {
	name string
	disk string
	loop loopKind
	// hot registers are dealt round-robin to the two clients, which write
	// only their own; planted registers beyond them exist on every node's
	// store before boot and are only ever read.
	hot, planted int
	window       int     // closedWindow: futures in flight per client
	zipf         float64 // > 0: hot registers are drawn Zipf(s) instead of uniformly
	ownReadsOnly bool    // reads stay on the reader's own registers
	coldReads    float64 // share of reads that go to a planted register
	rate         int     // openLoop: writes/s and reads/s per client
	// phases split the window; the first is the one the workload is named
	// after and the one throughput and CPU are counted over.
	phases []phase
	// killCycles > 0 kills and re-execs node 1 that many times a run, evenly
	// spaced, inside the windows. A traced run of the other workloads does
	// it codaCycles times after the window, so that every workload reports
	// outage_ms and its parts, on the stores its own run left behind.
	killCycles, codaCycles int
}

// specs are the four workloads; why each was chosen is recorded in
// BENCHMARK.json and README.md.
var specs = []spec{
	{
		name: "write_sync", disk: "wal", loop: closedSync, hot: 128,
		phases: []phase{{0.7, 1}, {0.3, 0}}, ownReadsOnly: true, codaCycles: 9,
	},
	{
		name: "read_sync", disk: "wal", loop: closedSync, hot: 128,
		phases: []phase{{0.7, 0}, {0.3, 1}}, codaCycles: 9,
	},
	{
		name: "mixed_pipelined", disk: "wal", loop: closedWindow, hot: 4096, window: 64, zipf: 1.1,
		phases: []phase{{1, 0.5}}, codaCycles: 3, // a cycle costs a second here: 2049 pending writes to finish
	},
	{
		name: "kill_restart", disk: "sharded", loop: openLoop, hot: 128, planted: 100000, rate: 200,
		coldReads: 0.25, phases: []phase{{1, 0.5}}, killCycles: 6,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) registers() int { return max(s.hot, s.planted) }

func regName(i uint32) string { return fmt.Sprintf("b%06d", i) }

// op is one generated operation. Write sequences and value bytes follow from
// the order operations are issued in, so they are not part of it.
type op struct {
	write bool
	reg   uint32
}

// opGen draws one client's operations. The same seed, client and spec give
// the same list.
type opGen struct {
	s      spec
	client uint32
	rng    *rand.Rand
	zipf   *rand.Zipf
}

func newOpGen(s spec, seed uint64, client int) *opGen {
	g := &opGen{s: s, client: uint32(client), rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
	if s.zipf > 0 {
		g.zipf = rand.NewZipf(g.rng, s.zipf, 1, uint64(s.hot/numClients-1))
	}
	return g
}

// hotRank draws a rank among one client's share of the hot registers.
func (g *opGen) hotRank() uint32 {
	if g.zipf != nil {
		return uint32(g.zipf.Uint64())
	}
	return uint32(g.rng.IntN(g.s.hot / numClients))
}

func (g *opGen) next(writeShare float64) op {
	if g.rng.Float64() < writeShare {
		return op{write: true, reg: g.hotRank()*numClients + g.client}
	}
	if g.s.coldReads > 0 && g.rng.Float64() < g.s.coldReads {
		return op{reg: uint32(g.s.hot + g.rng.IntN(g.s.planted-g.s.hot))}
	}
	owner := g.client
	if !g.s.ownReadsOnly {
		owner = uint32(g.rng.IntN(numClients))
	}
	return op{reg: g.hotRank()*numClients + owner}
}

// schedule is an open loop's timetable: operation k is due at start + k×gap,
// whatever happened to the operations before it.
type schedule struct {
	start time.Time
	gap   time.Duration
}

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.gap) }

// count is how many operations fall due before the window ends.
func (s schedule) count(window time.Duration) int { return int(window / s.gap) }
