// faultdemo reproduces Figure 1 of the paper live: the same crash schedule
// is run against the transient-atomic emulation (Fig. 5) and the
// persistent-atomic emulation (Fig. 4), showing the observable difference
// between the two consistency criteria.
//
// Schedule (writer is process 0, reader is process 1):
//
//	W(v1) completes everywhere.
//	W(v2) reaches only process 3, then the writer crashes and recovers.
//	R1 reads with a quorum that misses process 3.
//	R2 reads with a quorum that includes process 3.
//
// Under the transient algorithm, R1 returns v1 and R2 returns v2: the
// crashed write "overlaps" the writer's recovery — permitted by transient
// atomicity, rejected by the persistent checker. Under the persistent
// algorithm, recovery finishes W(v2) before anything else, so both reads
// return v2 and the run is persistent-atomic.
//
//	go run ./examples/faultdemo
package main

import (
	"context"
	"errors"
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
	fmt.Fprintln(w, "=== transient-atomic emulation (Fig. 5) ===")
	if err := schedule(w, recmem.TransientAtomic); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "=== persistent-atomic emulation (Fig. 4) ===")
	return schedule(w, recmem.PersistentAtomic)
}

func schedule(w io.Writer, algo recmem.Algorithm) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := recmem.New(5, algo, recmem.WithRetransmitEvery(5*time.Millisecond))
	if err != nil {
		return err
	}
	defer c.Close()

	writer, reader := c.Process(0), c.Process(1)

	if err := writer.Write(ctx, "x", []byte("v1")); err != nil {
		return err
	}
	time.Sleep(20 * time.Millisecond) // let every replica adopt v1
	fmt.Fprintln(w, "W(v1) completed")

	// W(v2): propagation reaches only process 3; the writer's quorums are
	// pinned to {0,1,2} so the operation cannot finish; then the writer
	// crashes.
	c.RestrictAcks(0, 0, 1, 2)
	c.RestrictWritePropagation(0, 3)
	done := make(chan error, 1)
	go func() { done <- writer.Write(ctx, "x", []byte("v2")) }()
	waitForV2(ctx, c)
	if err := writer.Crash(ctx); err != nil {
		return err
	}
	if err := <-done; !errors.Is(err, recmem.ErrCrashed) {
		return fmt.Errorf("W(v2) should be interrupted, got %v", err)
	}
	fmt.Fprintln(w, "W(v2) crashed mid-write (reached only process 3)")

	c.ClearNetworkScript()
	if err := writer.Recover(ctx); err != nil {
		return err
	}
	fmt.Fprintln(w, "writer recovered")

	// W(v3) starts but its propagation is held: Figure 1's reads run while
	// the writer's next write is in progress. (Persistent atomicity bounds
	// the crashed W(v2) at this invocation; that is what makes the
	// overlapping-write outcome a persistent violation.)
	c.RestrictAcks(0, 0, 1, 2)
	c.RestrictWritePropagation(0 /* nobody */)
	v3done := make(chan error, 1)
	go func() { v3done <- writer.Write(ctx, "x", []byte("v3")) }()
	time.Sleep(20 * time.Millisecond) // let W(v3)'s invocation be recorded
	fmt.Fprintln(w, "W(v3) in progress")

	// R1 with a quorum missing process 3; R2 with a quorum including it.
	c.RestrictAcks(1, 0, 1, 2)
	r1, err := reader.Read(ctx, "x")
	if err != nil {
		return err
	}
	c.RestrictAcks(1, 1, 2, 3)
	r2, err := reader.Read(ctx, "x")
	if err != nil {
		return err
	}
	c.ClearNetworkScript()
	if err := <-v3done; err != nil {
		return fmt.Errorf("W(v3): %w", err)
	}
	fmt.Fprintf(w, "R1 = %q, R2 = %q (during W(v3))\n", r1, r2)

	transientOK := c.VerifyCriterion(recmem.TransientAtomicity)
	persistentOK := c.VerifyCriterion(recmem.PersistentAtomicity)
	fmt.Fprintf(w, "transient-atomicity check:  %v\n", verdict(transientOK))
	fmt.Fprintf(w, "persistent-atomicity check: %v\n", verdict(persistentOK))

	switch algo {
	case recmem.TransientAtomic:
		if transientOK != nil {
			return fmt.Errorf("transient run must satisfy transient atomicity: %w", transientOK)
		}
		// The overlapping write is visible exactly when the quorums split;
		// in that case the run is not persistent-atomic — which is the
		// figure's point.
		if string(r1) == "v1" && string(r2) == "v2" && persistentOK == nil {
			return errors.New("checker failed to flag the overlapping write")
		}
	case recmem.PersistentAtomic:
		if persistentOK != nil {
			return fmt.Errorf("persistent run must satisfy persistent atomicity: %w", persistentOK)
		}
		if string(r1) != "v2" || string(r2) != "v2" {
			return fmt.Errorf("persistent recovery must finish W(v2); reads = %q, %q", r1, r2)
		}
	}
	return nil
}

// waitForV2 polls process 3's volatile state until v2 reached it.
func waitForV2(ctx context.Context, c *recmem.Cluster) {
	for {
		if val, ok := c.Process(3).Peek("x"); ok && string(val) == "v2" {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func verdict(err error) string {
	if err == nil {
		return "PASS"
	}
	return "VIOLATION (" + err.Error() + ")"
}
