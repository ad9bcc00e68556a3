// Command bench is the deployed-shape benchmark of the emulation: it builds
// cmd/recmem-node from the tree it sits in, runs three node processes on real
// directories, drives them from this one process through two client
// connections, audits every reply and prints every metric of BENCHMARK.json
// by name. See README.md for the workloads, the metrics and how their bounds
// were derived.
//
//	bash bench/run.sh -workload write_sync -seed 7         # one workload, end-to-end metrics
//	bash bench/run.sh -workload write_sync -seed 7 -trace 1  # its per-layer metrics
//	bash bench/run.sh -seed 7                              # all four
//	bash bench/run.sh -selfcheck                           # two sets of runs must agree within the bounds
//	bash bench/run.sh -control                             # the audit must catch a dishonest node
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// watchdogLimit is the hard ceiling on one workload, set-ups included: the
// contract allows a run 180 s.
const watchdogLimit = 170 * time.Second

// benchmarkFile is BENCHMARK.json, the one place bounds live.
type benchmarkFile struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workloadJS `json:"workloads"`
	EndToEnd   []metricDef  `json:"end_to_end"`
	PerLayer   []metricDef  `json:"per_layer"`
}

type workloadJS struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Bound float64 `json:"bound,omitempty"`
}

// report is one run's result: the last line of standard output carries the
// contract's four keys, bench/out/ the whole of it.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	Commit     string            `json:"commit"`
	Machine    map[string]string `json:"machine"`
	Violations []string          `json:"violations,omitempty"`
	// Stages is the traced run's latency budget: mean time per operation in
	// each consecutive stage, summing to the mean traced latency.
	Stages []stage `json:"stages,omitempty"`
}

type stage struct {
	Name   string  `json:"name"`
	MeanUS float64 `json:"mean_us"`
	Share  float64 `json:"share"`
}

type options struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    int
}

// workloads are the names to run: the one asked for, or all.
func (o options) workloads() []string {
	if o.workload != "" {
		return []string{o.workload}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return names
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-role" && os.Args[2] == "node" {
		if err := runNodeRole(os.Args[3:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench node:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.root, "root", "..", "checkout to build recmem-node from and to keep .bench_build in")
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: register order, operation mix, value bytes")
	flag.IntVar(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: run against traced nodes and print the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload in two interleaved sets of runs; fail unless their medians agree within every bound")
	spreadRuns := flag.Int("spread", 0, "run each workload this many times on consecutive seeds and print every end-to-end metric's spread and the bound it calls for")
	control := flag.Bool("control", false, "negative control: the audit must fail with a -stale-reads node and pass without")
	flag.Parse()

	root, err := filepath.Abs(o.root)
	if err != nil {
		fatal(err)
	}
	o.root = root
	bf, err := readBenchmarkFile(o.root)
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = bf.RunSeconds
	}
	if err := os.MkdirAll(filepath.Join(o.root, ".bench_build", "bin"), 0o755); err != nil {
		fatal(err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		exit(130)
	}()

	switch {
	case *control:
		exit(runControl(o))
	case *selfcheck:
		exit(runSelfcheck(o, bf))
	case *spreadRuns > 0:
		exit(runSpread(o, bf, *spreadRuns))
	}
	code := 0
	for _, name := range o.workloads() {
		o.workload = name
		rep, err := runOne(o, bf)
		if err != nil {
			fatal(err)
		}
		printReport(rep, bf)
		if !rep.Correct {
			code = 1
		}
	}
	exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	exit(2)
}

// runOne runs one workload under the watchdog and assembles its report.
func runOne(o options, bf benchmarkFile) (*report, error) {
	s, err := specByName(o.workload)
	if err != nil {
		return nil, err
	}
	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded its %v watchdog\n", o.workload, watchdogLimit)
		exit(3)
	})
	defer watchdog.Stop()

	rep := &report{Workload: s.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Commit: commitOf(o.root), Machine: machineFacts(o.root), Metrics: map[string]value{}}
	var runs []*run
	if o.trace == 0 {
		runs, err = endToEnd(o, s, rep)
	} else {
		runs, err = traced(o, s, rep)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range bf.EndToEnd {
		if v, ok := rep.Metrics[d.Name]; ok {
			v.Bound = d.Bound
			rep.Metrics[d.Name] = v
		}
	}
	for _, r := range runs {
		rep.Attempted += r.attempted.Load()
		rep.Failed += r.failed.Load()
		rep.Violations = append(rep.Violations, r.audit.first...)
	}
	rep.Correct = rep.Failed == 0
	writeOut(o.root, rep)
	return rep, nil
}

// bootAndWarm is one set-up: build, plant, boot, dial, warm up.
func bootAndWarm(o options, s spec, cfg meshConfig) (*run, error) {
	m, err := bootMesh(cfg)
	if err != nil {
		return nil, err
	}
	r := newRun(s, o.seed, m)
	if err := r.warmup(); err != nil {
		m.stop()
		return nil, err
	}
	return r, nil
}

// endToEnd measures a workload on the real recmem-node binary. Each of the
// run's set-ups carries a third of the window: this system's speed shifts by
// a fifth between boots and between half-minutes, and three boots sample
// that better than one.
func endToEnd(o options, s spec, rep *report) ([]*run, error) {
	cfg := meshConfig{root: o.root, disk: s.disk, planted: s.planted, stale: -1}
	pl := plan{window: time.Duration(o.seconds) * time.Second / numSetups, slices: 1, kills: s.killCycles / numSetups}
	var runs []*run
	var setups []float64
	for range numSetups {
		t := time.Now()
		r, err := bootAndWarm(o, s, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		err = r.measure(pl)
		r.m.stop()
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	maps.Copy(rep.Metrics, endToEndMetrics(runs, setups))
	return runs, nil
}

// endToEndMetrics turns a run's measured parts into the end-to-end metrics:
// latencies pooled, rates over the summed time load was offered.
func endToEndMetrics(runs []*run, setups []float64) map[string]value {
	var acked int64
	var active, cpu time.Duration
	var rss float64
	for _, r := range runs {
		acked += r.ackedPrimary
		active += r.active[0]
		cpu += r.cpu
		rss = max(rss, r.m.rssPeak)
	}
	wd, rdd := latencies(runs)
	return map[string]value{
		"setup_s":            {Value: median(setups), Unit: "s", N: len(setups)},
		"ops_per_s":          {Value: float64(acked) / active.Seconds(), Unit: "1/s", N: int(acked)},
		"write_p50_us":       {Value: wd.p50, Unit: "us", N: wd.n},
		"read_p50_us":        {Value: rdd.p50, Unit: "us", N: rdd.n},
		"node_cpu_us_per_op": {Value: float64(cpu.Microseconds()) / float64(max(acked, 1)), Unit: "us", N: int(acked)},
		"node_rss_mb":        {Value: rss, Unit: "MiB", N: numNodes * len(runs)},
	}
}

// latencies pools the client-observed write and read latencies of a run's
// parts, all phases, in microseconds. On kill_restart they are the
// survivor's: what a dying peer costs the healthy majority. The victim's own
// clients are judged by outage_ms.
func latencies(runs []*run) (write, read dist) {
	var w, rd []int64
	for _, r := range runs {
		clients := r.cl[:]
		if r.s.killCycles > 0 {
			clients = r.cl[:1]
		}
		for _, cl := range clients {
			for _, l := range cl.lat {
				w, rd = append(w, l.write...), append(rd, l.read...)
			}
		}
	}
	return summarize(w, 1e3), summarize(rd, 1e3)
}

func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// machineFacts are the facts a number from this benchmark depends on.
func machineFacts(root string) map[string]string {
	facts := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		facts["kernel"] = strings.TrimSpace(string(b))
	}
	// The filesystem under the stores: the longest mount point that
	// prefixes the checkout.
	if b, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(root, f[1]) && len(f[1]) >= len(best) {
				best, facts["filesystem"] = f[1], f[2]
			}
		}
	}
	return facts
}

// writeOut keeps the whole report as one JSON document under bench/out/.
func writeOut(root string, rep *report) {
	dir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, _ := json.MarshalIndent(rep, "", "  ")
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace)
	_ = os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printReport prints every metric by name, then the contract's result line.
func printReport(rep *report, bf benchmarkFile) {
	defs := bf.EndToEnd
	if rep.Trace == 1 {
		defs = bf.PerLayer
	}
	fmt.Printf("\n%s  seed %d  %d s  trace %d  commit %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Commit)
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("  %-32s %14.4f %-6s n=%-8d", d.Name, v.Value, v.Unit, v.N)
		if d.Bound > 0 {
			line += fmt.Sprintf(" bound %.0f%% (%s is better)", d.Bound*100, d.Better)
		}
		fmt.Println(line)
	}
	for _, st := range rep.Stages {
		fmt.Printf("  stage %-28s %10.1f us mean  %5.1f%%\n", st.Name, st.MeanUS, st.Share*100)
	}
	for _, v := range rep.Violations {
		fmt.Println("  FAILED:", v)
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.Correct, max(rep.Attempted, 1), rep.Failed, map[string]metricOut{}}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		last.Metrics[d.Name] = metricOut{v.Value, d.Unit}
	}
	data, _ := json.Marshal(last)
	fmt.Println(string(data))
}

// runSpread is how the bounds in BENCHMARK.json were derived: n runs of each
// workload on consecutive seeds, each end-to-end metric's interquartile range
// as a share of its median, and the bound that spread calls for.
func runSpread(o options, bf benchmarkFile, n int) int {
	for _, name := range o.workloads() {
		o.workload = name
		values := map[string][]float64{}
		for range n {
			o.seed++
			rep, err := runOne(o, bf)
			if err != nil || !rep.Correct {
				fmt.Fprintln(os.Stderr, "bench:", name, "seed", o.seed, "failed:", err)
				return 1
			}
			for k, v := range rep.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		for _, d := range bf.EndToEnd {
			sp := spread(values[d.Name])
			bound, ok := boundFor(sp)
			note := ""
			if !ok {
				note = "  too wide for a bounded metric"
			}
			fmt.Printf("spread %-16s %-20s median %12.4f  spread %5.1f%%  bound %.0f%%%s\n",
				name, d.Name, median(values[d.Name]), sp*100, bound*100, note)
		}
	}
	return 0
}

// selfcheckRuns is how many runs make one of the selfcheck's two sets.
const selfcheckRuns = 3

// runSelfcheck measures every workload in two sets of runs on the same tree,
// alternating between the sets so both see the same machine, and compares the
// sets' medians: the benchmark must agree with itself within its own bounds
// before it may judge anyone else.
func runSelfcheck(o options, bf benchmarkFile) int {
	code := 0
	for _, name := range o.workloads() {
		o.workload = name
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for i := range 2 * selfcheckRuns {
			o.seed++
			rep, err := runOne(o, bf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			printReport(rep, bf)
			if !rep.Correct {
				code = 1
			}
			for name, v := range rep.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, d := range bf.EndToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			verdict := "agree"
			if !agree(a, b, d.Bound, d.Better == "higher") {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("selfcheck %-16s %-20s %12.4f %12.4f  %+6.1f%%  bound %.0f%%  %s\n",
				name, d.Name, a, b, worseBy(a, b, d.Better == "higher")*100, d.Bound*100, verdict)
		}
	}
	if code == 0 {
		fmt.Println("selfcheck: every end-to-end metric on every workload agrees within its bound; no operation failed")
	}
	return code
}

// runControl proves the audit can fail: a short mixed_pipelined run with
// node 1 serving frozen reads must be caught, and the same run on honest
// nodes must pass.
func runControl(o options) int {
	s, _ := specByName("mixed_pipelined")
	verdict := func(stale int) (failed int64, first []string, err error) {
		r, err := bootAndWarm(o, s, meshConfig{root: o.root, disk: s.disk, stale: stale})
		// Warm-up already runs the workload: a dishonest node is usually
		// caught there.
		if we := (*warmupError)(nil); errors.As(err, &we) {
			return we.failed, we.first, nil
		}
		if err != nil {
			return 0, nil, err
		}
		defer r.m.stop()
		if err := r.measure(plan{window: 3 * time.Second, slices: 1}); err != nil {
			return 0, nil, err
		}
		return r.failed.Load(), r.audit.first, nil
	}
	failed, first, err := verdict(victim)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("control: node %d -stale-reads: %d operations failed the audit\n", victim, failed)
	for _, v := range first {
		fmt.Println("  ", v)
	}
	if failed == 0 {
		fmt.Println("control: FAILED — the audit did not catch the dishonest node")
		return 1
	}
	failed, first, err = verdict(-1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("control: honest nodes: %d operations failed the audit\n", failed)
	if failed != 0 {
		for _, v := range first {
			fmt.Println("  ", v)
		}
		return 1
	}
	fmt.Println("control: passed — the audit fails with the dishonest node and passes without it")
	return 0
}
