// Quickstart: a five-process persistent-atomic shared memory.
//
// The example writes and reads a register from different processes, crashes
// the writer (losing its volatile state), recovers it from stable storage,
// and finally verifies the recorded history against persistent atomicity.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"recmem"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run runs the example, writing its report to w.
func run(w io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Five emulated processes over a simulated LAN calibrated to the
	// paper's testbed (0.1 ms transit, 0.2 ms synchronous logging).
	c, err := recmem.New(5, recmem.PersistentAtomic, recmem.WithLAN())
	if err != nil {
		return err
	}
	defer c.Close()

	writer, reader := c.Process(0), c.Process(3)

	// First-class register handles: the dispatcher resolution happens here,
	// once, not on every operation.
	greeting := writer.Register("greeting")
	greetingAt3 := reader.Register("greeting")

	// A write is atomic: once it returns, every subsequent read anywhere
	// sees it (or something newer). WithCost captures the operation id for
	// log-complexity accounting.
	var op recmem.OpID
	if err := greeting.Write(ctx, []byte("hello, crash-recovery world"), recmem.WithCost(&op)); err != nil {
		return err
	}
	val, err := greetingAt3.Read(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "process 3 reads: %q\n", val)

	// The write used exactly 2 causal logs — the optimum of Theorem 1.
	time.Sleep(10 * time.Millisecond) // let replicas beyond the quorum finish logging
	fmt.Fprintf(w, "write cost: %d causal logs (%d stores in total)\n",
		c.CostOf(op).CausalLogs, c.CostOf(op).TotalLogs)

	// Crash the writer: its volatile memory is gone...
	if err := writer.Crash(ctx); err != nil {
		return err
	}
	fmt.Fprintln(w, "process 0 crashed")

	// ...but stable storage and the majority still hold the value.
	if val, err = greetingAt3.Read(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "while 0 is down, process 3 still reads: %q\n", val)

	// Recovery replays the recovery procedure of Fig. 4 (finish any
	// interrupted write) and rejoins. The handle survives the crash —
	// handles are bound to the process, not its incarnation.
	if err := writer.Recover(ctx); err != nil {
		return err
	}
	if val, err = greeting.Read(ctx); err != nil {
		return err
	}
	fmt.Fprintf(w, "recovered process 0 reads: %q\n", val)

	// The harness recorded every invocation, response, crash and recovery;
	// verify the run against the persistent-atomicity checker.
	if err := c.Verify(); err != nil {
		return fmt.Errorf("history verification failed: %w", err)
	}
	fmt.Fprintln(w, "history verified: persistent atomicity holds")

	fmt.Fprintf(w, "write latency: mean %v over %d writes\n",
		c.WriteLatency().Mean.Round(time.Microsecond), c.WriteLatency().Count)
	return nil
}
