package remote

// The conformance suite: one set of behavioral tests, run verbatim against
// both recmem.Client implementations — the in-process simulated cluster
// (recmem.Process) and this package's TCP client against a live 3-node
// mesh. The suite is what makes "same code everywhere" checkable: a
// divergence between the backends is a test failure here, not a surprise in
// an application.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
)

// backendCase builds three clients (one per process of a 3-process
// emulation) for the named algorithm.
type backendCase struct {
	name string
	make func(t *testing.T, algo recmem.Algorithm) []recmem.Client
}

func algoKind(algo recmem.Algorithm) core.AlgorithmKind {
	switch algo {
	case recmem.RegularRegister:
		return core.RegularSW
	case recmem.TransientAtomic:
		return core.Transient
	default:
		return core.Persistent
	}
}

var backends = []backendCase{
	{
		name: "sim",
		make: func(t *testing.T, algo recmem.Algorithm) []recmem.Client {
			t.Helper()
			c, err := recmem.New(3, algo, recmem.WithRetransmitEvery(10*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return []recmem.Client{c.Process(0), c.Process(1), c.Process(2)}
		},
	},
	{
		name: "remote",
		make: func(t *testing.T, algo recmem.Algorithm) []recmem.Client {
			t.Helper()
			mesh := startMesh(t, 3, algoKind(algo))
			return []recmem.Client{mesh.dial(t, 0), mesh.dial(t, 1), mesh.dial(t, 2)}
		},
	},
}

// TestConformance runs every behavioral check against every backend.
func TestConformance(t *testing.T) {
	checks := []struct {
		name string
		algo recmem.Algorithm
		run  func(t *testing.T, clients []recmem.Client)
	}{
		{"WriteThenReadElsewhere", recmem.PersistentAtomic, confWriteRead},
		{"InitialValueIsNil", recmem.PersistentAtomic, confInitialNil},
		{"PipelinedSubmits", recmem.PersistentAtomic, confPipelined},
		{"CrashRecover", recmem.PersistentAtomic, confCrashRecover},
		{"DownErrors", recmem.PersistentAtomic, confDownErrors},
		{"RegularWriterOnly", recmem.RegularRegister, confRegularWriter},
		{"SafeReadSelection", recmem.RegularRegister, confSafeRead},
		{"ConsistencyRejected", recmem.PersistentAtomic, confConsistencyRejected},
		{"ExpiredDeadline", recmem.PersistentAtomic, confExpiredDeadline},
		{"CloseReleasesHandle", recmem.PersistentAtomic, confClose},
	}
	for _, b := range backends {
		for _, check := range checks {
			t.Run(b.name+"/"+check.name, func(t *testing.T) {
				check.run(t, b.make(t, check.algo))
			})
		}
	}
}

func confWriteRead(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[0].Register("x").Write(ctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		got, err := c.Register("x").Read(ctx)
		if err != nil || string(got) != "v1" {
			t.Fatalf("client %d read = %q, %v", i, got, err)
		}
	}
}

func confInitialNil(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	got, err := clients[1].Register("never-written").Read(ctx)
	if err != nil || got != nil {
		t.Fatalf("initial read = %v, %v (want nil)", got, err)
	}
}

func confPipelined(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	regs := []*recmem.Register{
		clients[0].Register("a"), clients[0].Register("b"), clients[0].Register("c"),
	}
	const ops = 120
	var writes []*recmem.WriteFuture
	for i := 0; i < ops; i++ {
		f, err := regs[i%len(regs)].SubmitWrite([]byte(fmt.Sprintf("w%03d", i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		writes = append(writes, f)
	}
	for i, f := range writes {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	var reads []*recmem.ReadFuture
	for i := 0; i < ops; i++ {
		f, err := regs[i%len(regs)].SubmitRead()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, f)
	}
	for i, f := range reads {
		val, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(val) == 0 {
			t.Fatalf("read %d returned ⊥ after %d writes", i, ops)
		}
	}
}

func confCrashRecover(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[0].Register("x").Write(ctx, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Crash(ctx); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("double crash: %v", err)
	}
	// The remaining majority keeps serving.
	got, err := clients[1].Register("x").Read(ctx)
	if err != nil || string(got) != "durable" {
		t.Fatalf("read with one node down = %q, %v", got, err)
	}
	if err := clients[0].Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].Recover(ctx); !errors.Is(err, recmem.ErrNotDown) {
		t.Fatalf("recover of an up process: %v", err)
	}
	got, err = clients[0].Register("x").Read(ctx)
	if err != nil || string(got) != "durable" {
		t.Fatalf("read after recovery = %q, %v", got, err)
	}
}

func confDownErrors(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[2].Crash(ctx); err != nil {
		t.Fatal(err)
	}
	reg := clients[2].Register("x")
	if err := reg.Write(ctx, []byte("v")); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("write while down: %v", err)
	}
	if _, err := reg.Read(ctx); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("read while down: %v", err)
	}
	// Admission errors may surface at submission (the simulator knows its
	// process state locally) or at the future (a remote client learns it
	// from the response) — the contract is only that they surface.
	if f, err := reg.SubmitWrite([]byte("v")); err == nil {
		err = f.Wait(ctx)
		if !errors.Is(err, recmem.ErrDown) {
			t.Fatalf("submit while down resolved to: %v", err)
		}
	} else if !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("submit while down: %v", err)
	}
	if err := clients[2].Recover(ctx); err != nil {
		t.Fatal(err)
	}
}

func confRegularWriter(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[1].Register("x").Write(ctx, []byte("v")); !errors.Is(err, recmem.ErrNotWriter) {
		t.Fatalf("non-writer write: %v", err)
	}
	if err := clients[0].Register("x").Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func confSafeRead(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[0].Register("x").Write(ctx, []byte("v7")); err != nil {
		t.Fatal(err)
	}
	got, err := clients[2].Register("x").Read(ctx, recmem.WithConsistency(recmem.Safety))
	if err != nil || string(got) != "v7" {
		t.Fatalf("safe read = %q, %v", got, err)
	}
	got, err = clients[1].Register("x").Read(ctx, recmem.WithConsistency(recmem.Regularity))
	if err != nil || string(got) != "v7" {
		t.Fatalf("regular read = %q, %v", got, err)
	}
}

func confConsistencyRejected(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if _, err := clients[0].Register("x").Read(ctx, recmem.WithConsistency(recmem.Safety)); !errors.Is(err, recmem.ErrBadConsistency) {
		t.Fatalf("safe read under an atomic algorithm: %v", err)
	}
	if err := clients[0].Register("x").Write(ctx, []byte("v"), recmem.WithConsistency(recmem.Safety)); err == nil {
		t.Fatal("consistency selection on a write accepted")
	}
}

// confExpiredDeadline: an operation whose deadline has already expired, or
// whose context is already done, is refused before it reaches the backend —
// synchronous or submitted, on every backend — with its captures zeroed, and
// it never executes.
func confExpiredDeadline(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	x := clients[0].Register("x")
	var wit recmem.Tag
	var ep uint64
	if err := x.Write(ctx, []byte("v"), recmem.WithWitness(&wit), recmem.WithEpoch(&ep)); err != nil {
		t.Fatal(err)
	}
	expired := recmem.WithDeadline(-time.Second)
	if err := x.Write(ctx, []byte("late"), expired, recmem.WithWitness(&wit), recmem.WithEpoch(&ep)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired write = %v", err)
	}
	if !wit.IsZero() || ep != 0 {
		t.Fatalf("expired write left witness %v, epoch %d", wit, ep)
	}
	if f, err := x.SubmitWrite([]byte("late"), expired); !errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			err = f.Wait(ctx)
		}
		t.Fatalf("expired submitted write = %v, want refused at submission", err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if err := x.Write(done, []byte("late")); !errors.Is(err, context.Canceled) {
		t.Fatalf("write under a done context = %v", err)
	}
	if _, err := x.Read(ctx, expired, recmem.WithWitness(&wit)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired read = %v", err)
	}
	if _, err := x.SubmitRead(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired submitted read = %v", err)
	}
	// None of the refused writes executed, here or at another process.
	for i, c := range clients {
		got, err := c.Register("x").Read(ctx)
		if err != nil || string(got) != "v" {
			t.Fatalf("client %d read = %q, %v; want \"v\"", i, got, err)
		}
	}
}

func confClose(t *testing.T, clients []recmem.Client) {
	ctx := testCtx(t)
	if err := clients[1].Register("x").Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := clients[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Closing one client never takes the emulation down: the others work.
	got, err := clients[0].Register("x").Read(ctx)
	if err != nil || string(got) != "v" {
		t.Fatalf("read after peer close = %q, %v", got, err)
	}
}
