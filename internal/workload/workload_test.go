package workload_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/workload"
)

func TestUniqueValue(t *testing.T) {
	seen := make(map[string]bool)
	for proc := int32(0); proc < 4; proc++ {
		for i := 0; i < 50; i++ {
			v := workload.UniqueValue(proc, i, 0)
			if seen[v] {
				t.Fatalf("duplicate value %q", v)
			}
			seen[v] = true
		}
	}
	if v := workload.UniqueValue(1, 2, 32); len(v) != 32 {
		t.Fatalf("padded value has length %d, want 32", len(v))
	}
	if !strings.HasPrefix(workload.UniqueValue(1, 2, 32), "p1-2") {
		t.Fatal("padding destroyed the identifying prefix")
	}
	// Short size requests keep the full identifier.
	if v := workload.UniqueValue(1, 2, 2); v != "p1-2" {
		t.Fatalf("short size truncated the value: %q", v)
	}
}

func TestAllProcs(t *testing.T) {
	got := workload.AllProcs(3)
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("AllProcs = %v", got)
	}
	if workload.AllProcs(0) != nil && len(workload.AllProcs(0)) != 0 {
		t.Fatal("AllProcs(0) not empty")
	}
}

func TestRunCompletesAllOps(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         3,
		Algorithm: core.Persistent,
		Node:      core.Options{RetransmitEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := workload.Run(ctx, c, workload.AllProcs(3), 15,
		workload.Mix{ReadFraction: 0.5, Registers: []string{"a", "b"}}, 1)
	if res.Writes+res.Reads != 45 || res.Errors != 0 || res.Interrupted != 0 {
		t.Fatalf("result = %+v", res)
	}
	h := c.History()
	if len(h.Operations()) != 45 {
		t.Fatalf("history has %d operations", len(h.Operations()))
	}
}

func TestRunDefaultsRegister(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         1,
		Algorithm: core.CrashStop,
		Node:      core.Options{RetransmitEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res := workload.Run(ctx, c, []int32{0}, 5, workload.Mix{}, 1)
	if res.Writes != 5 {
		t.Fatalf("result = %+v", res)
	}
	regs := c.History().Registers()
	if len(regs) != 1 || regs[0] != "x" {
		t.Fatalf("registers = %v, want default [x]", regs)
	}
}

func TestRunToleratesCrashes(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         3,
		Algorithm: core.Persistent,
		Node:      core.Options{RetransmitEvery: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	done := make(chan workload.Result, 1)
	go func() {
		done <- workload.Run(ctx, c, []int32{0}, 50, workload.Mix{}, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	c.Crash(0)
	time.Sleep(10 * time.Millisecond)
	if err := c.Recover(ctx, 0); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", res)
	}
	if res.Interrupted == 0 {
		t.Log("no operation was interrupted (timing); still fine")
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

func TestRunStopsOnContextCancel(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         3,
		Algorithm: core.Persistent,
		Node:      core.Options{RetransmitEvery: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	workload.Run(ctx, c, workload.AllProcs(3), 1_000_000, workload.Mix{}, 1)
	if time.Since(start) > 10*time.Second {
		t.Fatal("Run did not stop on cancellation")
	}
}

func TestRunAsyncCompletesAndVerifies(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         3,
		Algorithm: core.Persistent,
		Node:      core.Options{RetransmitEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res := workload.Run(ctx, c, workload.AllProcs(3), 8,
		workload.Mix{ReadFraction: 0.5, Registers: []string{"a", "b", "c", "d"}, Async: 4}, 1)
	if res.Writes+res.Reads != 24 || res.Errors != 0 || res.Interrupted != 0 {
		t.Fatalf("result = %+v", res)
	}
	if got := len(c.History().Operations()); got != 24 {
		t.Fatalf("history has %d operations, want 24", got)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("async workload history does not verify: %v", err)
	}
}

func TestRunAsyncToleratesCrashes(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         3,
		Algorithm: core.Transient,
		Node:      core.Options{RetransmitEvery: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			c.Crash(1)
			time.Sleep(2 * time.Millisecond)
			for c.Recover(ctx, 1) != nil && ctx.Err() == nil {
			}
		}
	}()
	res := workload.Run(ctx, c, workload.AllProcs(3), 30,
		workload.Mix{ReadFraction: 0.3, Registers: []string{"a", "b"}, Async: 8}, 7)
	<-done
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", res)
	}
	if res.Writes+res.Reads == 0 {
		t.Fatal("no operations completed under crashes")
	}
}
