package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"recmem"
	"recmem/internal/wire"
	"recmem/remote"
)

func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	} {
		got, ok := topPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("topPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 = %d, want 500", got)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 = %d, want 990: exactly ten samples lie beyond it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
// statistics.quantiles([10, 11, 13, 14, 20], n=4) == [10.5, 13.0, 17.0].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	ten := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := spread(ten); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	five := []float64{10, 11, 13, 14, 20}
	if got := spread(five); math.Abs(got-(17.0-10.5)/13) > 1e-12 {
		t.Errorf("spread(five) = %v, want 0.5", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	for _, c := range []struct {
		spread, bound float64
		ok            bool
	}{{0.02, 0.10, true}, {0.05, 0.10, true}, {0.08, 0.16, true}, {0.125, 0.25, true}, {0.2, 0.25, false}} {
		got, ok := boundFor(c.spread)
		if got != c.bound || ok != c.ok {
			t.Errorf("boundFor(%v) = %v, %v; want %v, %v", c.spread, got, ok, c.bound, c.ok)
		}
	}
	if got := worseBy(100, 112, false); math.Abs(got-0.12) > 1e-12 {
		t.Errorf("latency 100 -> 112 is worse by %v, want 0.12", got)
	}
	if got := worseBy(100, 112, true); math.Abs(got+0.12) > 1e-12 {
		t.Errorf("throughput 100 -> 112 is worse by %v, want -0.12", got)
	}
	if !agree(100, 109, 0.10, false) || agree(100, 112, 0.10, false) || agree(112, 100, 0.10, true) {
		t.Error("agree must hold within the bound in both directions and fail beyond it in either")
	}
}

func TestOpenLoopScheduleAndLag(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, gap: 2500 * time.Microsecond}
	if got := s.due(4); !got.Equal(start.Add(10 * time.Millisecond)) {
		t.Errorf("due(4) = %v", got)
	}
	if got := s.count(time.Second); got != 400 {
		t.Errorf("count(1s) = %d, want 400", got)
	}
	if got := lagOf(s.due(4), s.due(4).Add(300*time.Microsecond)); got != 300_000 {
		t.Errorf("lag = %d ns, want 300000", got)
	}
	if got := lagOf(s.due(4), s.due(3)); got != 0 {
		t.Errorf("an early generator has no lag, got %d", got)
	}

	// An operation due at t, submitted 2 ms late and acknowledged 5 ms after
	// t, has a latency of 5 ms: the stall counts.
	r := &run{}
	r.recording.Store(true)
	cl := &client{lat: make([]samples, 1)}
	due := s.due(7).UnixNano()
	cl.record(r, 0, clientSpan{write: true, submit: due + 2e6, done: due + 5e6}, due)
	if got := cl.lat[0].write; len(got) != 1 || got[0] != 5e6 {
		t.Errorf("latency from due time = %v, want [5ms]", got)
	}
}

func TestOpGenDeterminism(t *testing.T) {
	for _, s := range specs {
		a, b, other := newOpGen(s, 42, 1), newOpGen(s, 42, 1), newOpGen(s, 43, 1)
		same := true
		ranks := map[uint32]int{}
		for range 20000 {
			x, y, z := a.next(0.5), b.next(0.5), other.next(0.5)
			if x != y {
				t.Fatalf("%s: same seed diverged: %v vs %v", s.name, x, y)
			}
			same = same && x == z
			switch {
			case x.write && (int(x.reg) >= s.hot || x.reg%numClients != 1):
				t.Fatalf("%s: client 1 writes register %d, not one of its own", s.name, x.reg)
			case int(x.reg) >= s.registers():
				t.Fatalf("%s: register %d out of range", s.name, x.reg)
			case x.write:
				ranks[x.reg/numClients]++
			}
		}
		if same {
			t.Errorf("%s: a different seed gave the same 20000 operations", s.name)
		}
		if s.zipf > 0 && ranks[0] < 5*ranks[10] {
			t.Errorf("%s: Zipf(%.1f) rank 0 drawn %d times, rank 10 %d times: not skewed", s.name, s.zipf, ranks[0], ranks[10])
		}
	}
}

func TestValueAndAudit(t *testing.T) {
	v := encodeValue(1, 7, 3)
	if owner, reg, seq, ok := decodeValue(v); !ok || owner != 1 || reg != 7 || seq != 3 || len(v) != valueSize {
		t.Fatalf("round trip: %d %d %d %v", owner, reg, seq, ok)
	}
	v[40] ^= 1
	if _, _, _, ok := decodeValue(v); ok {
		t.Fatal("a flipped bit must fail the checksum")
	}

	a := newAuditor(8, numClients, numClients+1)
	tagOf := func(seq int64) recmem.Tag { return recmem.Tag{Seq: seq, Writer: 1} }
	seq := a.nextSeq(7)
	a.wrote(1, 7, seq, tagOf(1))
	if fl := a.beginRead(0, 7); !a.endRead(0, 7, fl, encodeValue(1, 7, seq), tagOf(1)) {
		t.Fatalf("an honest read failed: %v", a.first)
	}
	seq2 := a.nextSeq(7)
	a.wrote(1, 7, seq2, tagOf(2))
	for name, bad := range map[string]struct {
		val []byte
		tag recmem.Tag
	}{
		"stale":       {encodeValue(1, 7, seq), tagOf(2)},
		"invented":    {encodeValue(1, 7, seq2+1), tagOf(3)},
		"misrouted":   {encodeValue(1, 5, seq2), tagOf(2)},
		"wrong owner": {encodeValue(0, 7, seq2), tagOf(2)},
		"torn":        {v, tagOf(2)},
		"tag back":    {encodeValue(1, 7, seq2), tagOf(1)},
	} {
		if fl := a.beginRead(1, 7); a.endRead(1, 7, fl, bad.val, bad.tag) {
			t.Errorf("%s read passed the audit", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{20, 50}, {10, 30}, {90, 120}}
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("self time = %d, want 50: children cover 10..50 and 90..100", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d", got)
	}
}

// syntheticWrite is the events three nodes would record for one write
// through node 0: two rounds with a pre-log between them.
func syntheticWrite() (events []event, sp clientSpan) {
	const reg = 1
	send := func(node, to int8, kind wire.Kind, rpc uint64, t int64) event {
		return event{Kind: evSend, Class: uint8(kind), Node: node, From: node, To: to, Reg: reg, RPC: rpc, Op: 9, Start: t, End: t + 2}
	}
	recv := func(node, from int8, kind wire.Kind, rpc uint64, t int64) event {
		return event{Kind: evRecv, Class: uint8(kind), Node: node, From: from, To: node, Reg: reg, RPC: rpc, Op: 9, Start: t, End: t}
	}
	roundTrip := func(rpc uint64, req, ack wire.Kind, t0 int64, turnaround [numNodes]int64) {
		for n := int8(0); n < numNodes; n++ {
			events = append(events, send(0, n, req, rpc, t0))
			arrive := t0 + 10*int64(n+1)
			events = append(events, recv(n, 0, req, rpc, arrive))
			events = append(events, send(n, 0, ack, rpc, arrive+turnaround[n]))
			events = append(events, recv(0, n, ack, rpc, arrive+turnaround[n]+10*int64(n+1)))
		}
	}
	roundTrip(100, wire.KindSNQuery, wire.KindSNAck, 1000, [numNodes]int64{5, 5, 5})
	// Acks of round 1 arrive at 1025, 1045, 1065: quorum at 1045.
	events = append(events, event{Kind: evStoreCall, Class: recWriting, Node: 0, Count: 1, Start: 1050, End: 1350})
	events = append(events, event{Kind: evStore, Class: recWriting, Node: 0, Reg: reg, Start: 1050, End: 1350})
	roundTrip(101, wire.KindWrite, wire.KindWriteAck, 1400, [numNodes]int64{300, 400, 900})
	// Acks of round 2 arrive at 1720, 1840, 2360: quorum at 1840.
	// The same RPC ids started by another node are a different round.
	events = append(events, send(1, 2, wire.KindRead, 100, 1001))
	return events, clientSpan{client: 0, write: true, reg: 0, op: 9, submit: 900, done: 1900}
}

func TestJoinRounds(t *testing.T) {
	events, _ := syntheticWrite()
	rounds := joinRounds(events)
	if len(rounds) != 3 {
		t.Fatalf("%d rounds, want 3: RPC 100 and 101 of node 0, RPC 100 of node 1", len(rounds))
	}
	r1, r2 := rounds[roundKey{0, 100}], rounds[roundKey{0, 101}]
	if r1.firstSend != 1000 || r1.quorumAt() != 1045 || r1.sends != 3 || !isRound1(r1.kind) {
		t.Errorf("round 1: %+v quorum %d", r1, r1.quorumAt())
	}
	if r2.firstSend != 1400 || r2.quorumAt() != 1840 || isRound1(r2.kind) {
		t.Errorf("round 2: %+v quorum %d: the second-fastest ack decides", r2, r2.quorumAt())
	}
	if other := rounds[roundKey{1, 100}]; other.quorumAt() != 0 || other.firstSend != 1001 {
		t.Errorf("node 1's RPC 100 must not borrow node 0's acknowledgements: %+v", other)
	}
}

func TestAnalyzeStageBudget(t *testing.T) {
	events, sp := syntheticWrite()
	in := traceInput{
		files:  []nodeFile{{Node: 0, Names: []string{"", regName(0)}}},
		events: [][]event{events}, spans: []clientSpan{sp},
		start: 0, end: 5000, acked: 1, writes: 1,
	}
	ls := analyze(in)
	want := map[string]int64{
		"remote.ingress_us":           100, // 900 -> 1000
		"core.round1_us":              45,
		"bench.between_rounds_us":     355, // 1045 -> 1400
		"stable.prelog_us":            300,
		"core.round2_us":              440,
		"remote.egress_us":            60,          // 1840 -> 1900
		"bench.unattributed_pct_x100": 55 * 10 / 1, // 55 of 1000 ns: 5.5 %
		"bench.traced_write_us":       1000,
	}
	for name, w := range want {
		if got := ls.samples[name]; len(got) != 1 || got[0] != w {
			t.Errorf("%s = %v, want [%d]", name, got, w)
		}
	}
	// Round 2's turnarounds only; one-way times from the two remote replicas
	// of each round, in both directions.
	if got := ls.samples["core.replica_turnaround_us"]; !slices.Equal(got, []int64{300, 400, 900}) {
		t.Errorf("turnarounds = %v", got)
	}
	if got := ls.samples["nettcp.oneway_us"]; len(got) != 8 {
		t.Errorf("%d one-way samples, want 8", len(got))
	}
	if got := ls.counts["core.rounds_per_op"]; got != 2 {
		t.Errorf("rounds per op = %v, want 2: node 1's incomplete round does not count", got)
	}
}

// The code and BENCHMARK.json name the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("workloads %v, want the %d of specs", names, len(specs))
	}
	r := &run{s: specs[0], m: &mesh{}, phaseStart: make([]time.Time, 1), phaseEnd: make([]time.Time, 1), active: make([]time.Duration, 1)}
	for c := range r.cl {
		r.cl[c] = &client{}
	}
	e2e := endToEndMetrics([]*run{r}, nil)
	if len(bf.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bf.EndToEnd), len(e2e))
	}
	for _, d := range bf.EndToEnd {
		if v, ok := e2e[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("end-to-end metric %s [%s]: the code has %v %q", d.Name, d.Unit, ok, v.Unit)
		}
		if d.Bound <= 0 || d.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", d.Name, d.Bound, maxBound)
		}
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bf.PerLayer), len(layerMetrics))
	}
	for i, d := range bf.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != d.Name || layerMetrics[i].unit != d.Unit) {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the code", i, d.Name, d.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestNodeRoleSmoke boots three nodes of the traced shape in this process,
// drives a write and a read through the remote client and checks that the
// span file joins into complete rounds.
func TestNodeRoleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a three-node mesh")
	}
	addrs, err := freeAddrs(2 * numNodes)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	nodes := make([]*tracedNode, numNodes)
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			nodes[i], err = startTracedNode(nodeRoleConfig{id: i, peers: addrs[:numNodes], control: addrs[numNodes+i],
				dir: filepath.Join(dir, "n", string(rune('0'+i))), disk: "wal", spans: dir})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer func() {
		for _, tn := range nodes {
			tn.close()
		}
	}()
	c, err := remote.Dial(addrs[numNodes], remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := now()
	want := encodeValue(0, 0, 1)
	if err := c.Register(regName(0)).Write(ctx, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Register(regName(0)).Read(ctx)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("read %x, %v", got, err)
	}
	for _, tn := range nodes {
		tn.snapshot()
		if err := tn.flush(); err != nil {
			t.Fatal(err)
		}
	}
	files, events, boots, err := loadTrace(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != numNodes || len(boots) != numNodes {
		t.Fatalf("%d span files and %d boot records, want %d each", len(files), len(boots), numNodes)
	}
	ls := analyze(traceInput{files: files, events: events, boots: boots, start: start, end: now(), acked: 2, writes: 1})
	if got := ls.counts["core.rounds_per_op"]; got != 2 {
		t.Errorf("rounds per op = %v, want 2 (a write and a read, two rounds each)", got)
	}
	if got := ls.counts["stable.syncs_per_op"]; got < 1 {
		t.Errorf("syncs per op = %v: the write's logs must show in the engines' counters", got)
	}
	if n := len(ls.samples["stable.prelog_us"]); n != 1 {
		t.Errorf("%d pre-log spans, want the write's one", n)
	}
	var head nodeFile
	data, _ := os.ReadFile(spanFile(dir, 0, os.Getpid(), 0))
	if i := slices.Index(data, '\n'); i < 0 || json.Unmarshal(data[:i], &head) != nil || head.Events == 0 {
		t.Errorf("span file header: %+v", head)
	}
}
