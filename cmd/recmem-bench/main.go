// Command recmem-bench regenerates the paper's Figure 6 on the calibrated
// simulated testbed (δ ≈ 0.1 ms LAN transit, λ ≈ 0.2 ms synchronous disk
// logging — §V of the paper).
//
// Usage:
//
//	recmem-bench -experiment fig6a          # write latency vs. cluster size
//	recmem-bench -experiment fig6b          # write latency vs. payload size
//	recmem-bench -experiment all -writes 50
//
// The output is one table per experiment with a column per algorithm
// (crash-stop / transient / persistent), directly comparable to the paper's
// two graphs: expect the 4δ / 4δ+λ / 4δ+2λ ladder (≈ 500/700/900 µs at
// n = 5) in fig6a and linear growth with payload size in fig6b.
//
// Every other performance number — throughput, fsync amortization, restart
// cost — comes from the deployed-shape benchmark, bash bench/run.sh
// (docs/adr/0014).
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
		experiment = fs.String("experiment", "all", "fig6a, fig6b, or all")
		writes     = fs.Int("writes", 50, "timed writes per data point (the paper uses 50)")
		warmup     = fs.Int("warmup", 5, "untimed warmup writes per data point")
		passes     = fs.Int("passes", 3, "time-spread passes per point; the best median is kept")
		ns         = fs.String("ns", "", "comma-separated cluster sizes for fig6a (default 2..9)")
		sizes      = fs.String("sizes", "", "comma-separated payload sizes in bytes for fig6b")
		timeout    = fs.Duration("timeout", 10*time.Minute, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	opts := experiments.Options{Writes: *writes, Warmup: *warmup, Passes: *passes}
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
	switch *experiment {
	case "fig6a", "fig6b", "all":
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
