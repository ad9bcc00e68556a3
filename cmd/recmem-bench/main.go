// Command recmem-bench regenerates the paper's Figure 6 on the calibrated
// simulated testbed (δ ≈ 0.1 ms LAN transit, λ ≈ 0.2 ms synchronous disk
// logging — §V of the paper).
//
// Usage:
//
//	recmem-bench -experiment fig6a          # write latency vs. cluster size
//	recmem-bench -experiment fig6b          # write latency vs. payload size
//	recmem-bench -experiment batch          # batched vs. unbatched throughput
//	recmem-bench -experiment disks          # fsync amortization per storage engine
//	recmem-bench -experiment all -writes 50
//	recmem-bench -experiment batch -batch 64 -pipeline 8 -disk wal
//
// The output is one table per experiment with a column per algorithm
// (crash-stop / transient / persistent), directly comparable to the paper's
// two graphs: expect the 4δ / 4δ+λ / 4δ+2λ ladder (≈ 500/700/900 µs at
// n = 5) in fig6a and linear growth with payload size in fig6b.
//
// The batch experiment goes beyond the paper: it drives the same workload
// through the synchronous one-at-a-time API and through the batching +
// pipelining engine (-batch sets the per-client submission window, -pipeline
// the number of independent registers) and reports the throughput each
// achieves for every algorithm kind. -disk selects the stable-storage engine
// (mem: the calibrated simulated disk; file: one fsynced file per record;
// wal: the log-structured group-commit engine; sharded: the sharded
// compacting engine). The disks experiment runs the batched workload on
// every engine and reports each one's sync bill — how many causal-log
// records one disk flush amortizes.
//
// The namespace experiment (-experiment namespace) is the register-scale
// sweep: for each register count it populates wal and sharded stores
// through the batched durability path and reports load throughput, cold
// recovery (reopen) time and post-recovery probe latency, appending the
// rows to BENCH_namespace.json with -json (see namespace.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"recmem/internal/experiments"
	"recmem/internal/stable"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recmem-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("recmem-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "fig6a, fig6b, batch, disks, namespace, or all")
		jsonPath   = fs.String("json", "", "append -experiment namespace results to this trajectory file (BENCH_namespace.json)")
		commit     = fs.String("commit", "", "commit hash recorded in the -json entry")
		note       = fs.String("note", "", "free-form note recorded in the -json entry")
		writes     = fs.Int("writes", 50, "timed writes per data point (the paper uses 50)")
		warmup     = fs.Int("warmup", 5, "untimed warmup writes per data point")
		passes     = fs.Int("passes", 3, "time-spread passes per point; the best median is kept")
		ns         = fs.String("ns", "", "comma-separated cluster sizes for fig6a (default 2..9)")
		sizes      = fs.String("sizes", "", "comma-separated payload sizes in bytes for fig6b")
		batch      = fs.Int("batch", 32, "submission window per client for the batch experiment")
		pipeline   = fs.Int("pipeline", 4, "independent registers for the batch experiment")
		disk       = fs.String("disk", "mem", "stable-storage engine for batch/disks: mem, file, wal, or sharded")
		nsRegs     = fs.String("namespace-registers", "", "comma-separated register counts for -experiment namespace (default 1000,10000,100000,1000000)")
		nsVal      = fs.Int("namespace-value", 128, "register value size in bytes for -experiment namespace")
		timeout    = fs.Duration("timeout", 10*time.Minute, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *batch < 2 {
		return fmt.Errorf("-batch: window must be at least 2, got %d", *batch)
	}
	if *pipeline < 1 {
		return fmt.Errorf("-pipeline: need at least one register, got %d", *pipeline)
	}
	if !stable.ValidBackend(*disk) {
		return fmt.Errorf("-disk: unknown engine %q (want one of %s)", *disk, strings.Join(stable.Backends(), ", "))
	}
	opts := experiments.Options{
		Writes: *writes, Warmup: *warmup, Passes: *passes,
		Batch: *batch, Pipeline: *pipeline, DiskBackend: *disk,
	}
	var err error
	if opts.Ns, err = parseInts(*ns); err != nil {
		return fmt.Errorf("-ns: %w", err)
	}
	if opts.Sizes, err = parseInts(*sizes); err != nil {
		return fmt.Errorf("-sizes: %w", err)
	}

	if *experiment == "fig6a" || *experiment == "all" {
		fmt.Println("Figure 6 (top): average write time vs. number of workstations, 4-byte values")
		fmt.Println("(paper: ~500/700/900 µs at n=5 for crash-stop/transient/persistent)")
		points, err := experiments.Fig6a(ctx, opts)
		if err != nil {
			return err
		}
		experiments.PrintFig6a(os.Stdout, points)
		fmt.Println()
	}
	if *experiment == "fig6b" || *experiment == "all" {
		fmt.Println("Figure 6 (bottom): average write time vs. payload size, n = 5")
		fmt.Println("(paper: linear growth up to the 64 KB UDP limit)")
		points, err := experiments.Fig6b(ctx, opts)
		if err != nil {
			return err
		}
		experiments.PrintFig6b(os.Stdout, points)
	}
	if *experiment == "batch" || *experiment == "all" {
		if *experiment == "all" {
			fmt.Println()
		}
		fmt.Printf("Batched vs. unbatched throughput, n = 5, %d registers, window %d, %s disks\n", *pipeline, *batch, *disk)
		fmt.Println("(coalesced quorum rounds + pipelined registers vs. one operation at a time)")
		points, err := experiments.Batch(ctx, opts)
		if err != nil {
			return err
		}
		experiments.PrintBatch(os.Stdout, points)
	}
	if *experiment == "disks" || *experiment == "all" {
		if *experiment == "all" {
			fmt.Println()
		}
		fmt.Printf("Fsync amortization per storage engine, n = 5, persistent, %d registers, window %d\n", *pipeline, *batch)
		fmt.Println("(same coalesced batched workload; records/sync is the group-commit amortization)")
		points, err := experiments.Disks(ctx, opts)
		if err != nil {
			return err
		}
		experiments.PrintDisks(os.Stdout, points)
	}
	if *experiment == "namespace" {
		registers, err := parseInts(*nsRegs)
		if err != nil {
			return fmt.Errorf("-namespace-registers: %w", err)
		}
		return namespaceBench(ctx, namespaceConfig{
			Registers: registers, ValueBytes: *nsVal, Batch: *batch,
			JSONPath: *jsonPath, Commit: *commit, Note: *note,
		})
	}
	switch *experiment {
	case "fig6a", "fig6b", "batch", "disks", "all":
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

// parseInts parses a comma-separated integer list ("" -> nil, meaning
// defaults).
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d out of range", v)
		}
		out = append(out, v)
	}
	return out, nil
}
