package workload_test

import (
	"context"
	"testing"
	"time"

	"recmem"
	"recmem/internal/atomicity"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/workload"
)

// TestRunClientsOverClusterAdapter drives RunClients over Clients and checks
// the histories verify exactly like the proc-based Run.
func TestRunClientsOverClusterAdapter(t *testing.T) {
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

	clients := workload.Clients(c, workload.AllProcs(3))
	res := workload.RunClients(ctx, clients, 12,
		workload.Mix{ReadFraction: 0.5, Registers: []string{"a", "b"}}, 1)
	if res.Writes+res.Reads != 36 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if got := len(c.History().Operations()); got != 36 {
		t.Fatalf("history has %d operations, want 36", got)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("client-driven history does not verify: %v", err)
	}
}

// TestClientFaultsKeepsMajority injects faults through the Client interface
// while a workload runs and checks the invariants: never more than a
// minority down, everything recovered at the end, history verifiable.
func TestClientFaultsKeepsMajority(t *testing.T) {
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

	clients := workload.Clients(c, workload.AllProcs(3))
	faultCtx, stopFaults := context.WithTimeout(ctx, 200*time.Millisecond)
	defer stopFaults()
	faultsDone := make(chan int, 1)
	go func() {
		faultsDone <- workload.ClientFaults(faultCtx, clients, workload.ClientFaultOptions{
			Seed: 7, MeanInterval: 5 * time.Millisecond,
		})
	}()
	res := workload.RunClients(ctx, clients, 40,
		workload.Mix{ReadFraction: 0.4, Registers: []string{"a"}}, 3)
	crashes := <-faultsDone
	if res.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", res)
	}
	if crashes == 0 {
		t.Fatal("fault injector never crashed anything")
	}
	// Everything is up again (ClientFaults recovers what it downed).
	for p := int32(0); p < 3; p++ {
		if !c.Node(p).Up() {
			t.Fatalf("process %d still down after ClientFaults returned", p)
		}
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatal(err)
	}
}

// TestClientFaultsRefusesTotalCrash: with one client there is no safe
// minority to crash.
func TestClientFaultsRefusesTotalCrash(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		N:         1,
		Algorithm: core.Persistent,
		Node:      core.Options{RetransmitEvery: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	clients := workload.Clients(c, workload.AllProcs(1))
	if n := workload.ClientFaults(ctx, clients, workload.ClientFaultOptions{Seed: 1}); n != 0 {
		t.Fatalf("injected %d crashes into a majority-less system", n)
	}
}

// TestClientsReportEpochOnSyncOps: a synchronous operation through Clients
// carries the serving node's incarnation epoch, like a submitted one, so a
// recorded sim run sees one epoch per incarnation whichever API issued it.
func TestClientsReportEpochOnSyncOps(t *testing.T) {
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
	client := workload.Clients(c, []int32{0})[0]
	if err := client.Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := client.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	want := c.Node(0).IncarnationEpoch()
	if want == 0 {
		t.Fatal("recovered node reports epoch 0")
	}
	var wep, rep uint64
	if err := client.Register("x").Write(ctx, []byte("v"), recmem.WithEpoch(&wep)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("x").Read(ctx, recmem.WithEpoch(&rep)); err != nil {
		t.Fatal(err)
	}
	if wep != want || rep != want {
		t.Fatalf("sync write/read epochs = %d/%d, want %d", wep, rep, want)
	}
}

// TestRunClientsRecorded drives the identical scenario through recording
// clients (RecordClients, handed to the workload and the fault injector
// alike): both observers — the cluster's global recorder and the merged
// per-client recordings — must verify the run.
func TestRunClientsRecorded(t *testing.T) {
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

	group := recmem.NewRecordingGroup()
	clients := workload.RecordClients(group, workload.Clients(c, workload.AllProcs(3)))

	faultCtx, stopFaults := context.WithTimeout(ctx, 300*time.Millisecond)
	defer stopFaults()
	faultsDone := make(chan int, 1)
	go func() {
		faultsDone <- workload.ClientFaults(faultCtx, clients, workload.ClientFaultOptions{
			Seed: 9, MeanInterval: 10 * time.Millisecond,
		})
	}()
	res := workload.RunClients(ctx, clients, 15,
		workload.Mix{ReadFraction: 0.5, Registers: []string{"a", "b"}}, 2)
	<-faultsDone
	if err := c.RecoverAll(ctx); err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	hs := group.Histories()
	if len(hs) != 3 {
		t.Fatalf("recorded %d per-client histories, want 3", len(hs))
	}
	var events int
	for _, h := range hs {
		events += len(h)
	}
	if events == 0 {
		t.Fatal("recorded no events")
	}
	if err := group.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("merged recording: %v", err)
	}
	if err := c.Check(atomicity.Persistent); err != nil {
		t.Fatalf("global observer: %v", err)
	}
}

// TestRunClientsRecordedAsync engages the batching engine under recording:
// async submissions ride one-shot virtual clients in the merged history.
func TestRunClientsRecordedAsync(t *testing.T) {
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

	group := recmem.NewRecordingGroup()
	clients := workload.RecordClients(group, workload.Clients(c, workload.AllProcs(3)))
	res := workload.RunClients(ctx, clients, 12, workload.Mix{ReadFraction: 0.4, Async: 4}, 3)
	if res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	merged, err := group.Merged()
	if err != nil {
		t.Fatal(err)
	}
	virtual := false
	for _, e := range merged {
		if e.Proc >= recmem.RecordingVirtualBase {
			virtual = true
			break
		}
	}
	if !virtual {
		t.Fatal("async recording attributed no virtual clients")
	}
	if err := group.Verify(recmem.PersistentAtomicity); err != nil {
		t.Fatalf("merged async recording: %v", err)
	}
}
