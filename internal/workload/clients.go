package workload

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"recmem"
	"recmem/internal/cluster"
)

// This file retargets the workload driver at the backend-agnostic
// recmem.Client interface: RunClients drives any client set — the
// simulated cluster's processes (Clients) or a live
// TCP mesh (remote.Dial) — with identical scenario code, and ClientFaults
// injects crash/recovery faults through the same interface. The cluster-
// specific Run in workload.go is a thin wrapper over these.

// Clients returns the listed processes of a simulated cluster as
// recmem.Clients: the same *recmem.Process an application gets from
// recmem.Cluster.Process, so operations and faults are attributed to the
// processes exactly like the Cluster-level API (histories stay verifiable).
func Clients(c *cluster.Cluster, procs []int32) []recmem.Client {
	out := make([]recmem.Client, len(procs))
	for i, p := range procs {
		out[i] = recmem.NewProcess(c, p)
	}
	return out
}

// RunClients drives opsPerClient operations at each client — one
// sequential logical client per Client (the paper's processes are
// sequential), or a windowed asynchronous client when mix.Async >= 2. It
// tolerates crash interruptions and returns aggregate counts; it stops
// early when ctx is done. The scenario is backend-agnostic: pass the
// simulated cluster's clients (Clients) or remote.Dial'ed connections.
func RunClients(ctx context.Context, clients []recmem.Client, opsPerClient int, mix Mix, seed int64) Result {
	regs := mix.Registers
	if len(regs) == 0 {
		regs = []string{"x"}
	}
	var (
		mu    sync.Mutex
		total Result
		wg    sync.WaitGroup
	)
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client recmem.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			// Registers are resolved once per client: the handles carry the
			// cached dispatcher resolution through the whole run.
			handles := make([]*recmem.Register, len(regs))
			for j, r := range regs {
				handles[j] = client.Register(r)
			}
			var local Result
			if mix.Async >= 2 {
				local = runClientAsync(ctx, client, i, opsPerClient, mix, handles, rng)
			} else {
				local = runClientSeq(ctx, client, i, opsPerClient, mix, handles, rng)
			}
			mu.Lock()
			total.Writes += local.Writes
			total.Reads += local.Reads
			total.Interrupted += local.Interrupted
			total.Errors += local.Errors
			mu.Unlock()
		}(i, client)
	}
	wg.Wait()
	return total
}

// runClientSeq is the closed-loop sequential client.
func runClientSeq(ctx context.Context, client recmem.Client, id, ops int, mix Mix, handles []*recmem.Register, rng *rand.Rand) Result {
	var local Result
	for i := 0; i < ops && ctx.Err() == nil; i++ {
		h := handles[rng.Intn(len(handles))]
		var err error
		if rng.Float64() < mix.ReadFraction {
			_, err = h.Read(ctx)
			if err == nil {
				local.Reads++
			}
		} else {
			err = h.Write(ctx, []byte(UniqueValue(int32(id), i, mix.ValueSize)))
			if err == nil {
				local.Writes++
			}
		}
		if err != nil {
			classify(ctx, client, mix, err, &local)
		}
	}
	return local
}

// clientPending is one submitted-but-unwaited operation.
type clientPending struct {
	wait func(context.Context) error
	read bool
}

// runClientAsync is the windowed-submission client over the handle API: up
// to mix.Async operations stay in flight, the oldest settled when the
// window fills — a closed loop over the window rather than a single
// operation.
func runClientAsync(ctx context.Context, client recmem.Client, id, ops int, mix Mix, handles []*recmem.Register, rng *rand.Rand) Result {
	var local Result
	window := make([]clientPending, 0, mix.Async)
	settle := func(p clientPending) {
		err := p.wait(ctx)
		switch {
		case err == nil:
			if p.read {
				local.Reads++
			} else {
				local.Writes++
			}
		case errors.Is(err, recmem.ErrCrashed), errors.Is(err, recmem.ErrDown):
			local.Interrupted++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		case mix.Forgive != nil && mix.Forgive(err):
			local.Interrupted++
		default:
			local.Errors++
		}
	}
	for i := 0; i < ops && ctx.Err() == nil; i++ {
		h := handles[rng.Intn(len(handles))]
		var (
			p   clientPending
			err error
		)
		if rng.Float64() < mix.ReadFraction {
			p.read = true
			var f *recmem.ReadFuture
			f, err = h.SubmitRead()
			if err == nil {
				p.wait = func(ctx context.Context) error { _, err := f.Wait(ctx); return err }
			}
		} else {
			var f *recmem.WriteFuture
			f, err = h.SubmitWrite([]byte(UniqueValue(int32(id), i, mix.ValueSize)))
			if err == nil {
				p.wait = f.Wait
			}
		}
		if err != nil {
			if errors.Is(err, recmem.ErrCrashed) || errors.Is(err, recmem.ErrDown) {
				local.Interrupted++
				select {
				case <-time.After(2 * time.Millisecond):
				case <-ctx.Done():
				}
			} else {
				local.Errors++
			}
			continue
		}
		window = append(window, p)
		if len(window) >= mix.Async {
			settle(window[0])
			window = window[1:]
		}
	}
	for _, p := range window {
		settle(p)
	}
	return local
}

// classify routes a failed synchronous operation into the result counters,
// waiting out crashes and (under Forgive) turning forgiven aborts into a
// crash + recovery so histories stay well-formed.
func classify(ctx context.Context, client recmem.Client, mix Mix, err error, local *Result) {
	switch {
	case errors.Is(err, recmem.ErrCrashed), errors.Is(err, recmem.ErrDown):
		local.Interrupted++
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The run is ending.
	case mix.Forgive != nil && mix.Forgive(err):
		local.Interrupted++
		crashClientAfterAbort(ctx, client)
	default:
		local.Errors++
	}
}

// crashClientAfterAbort turns a forgiven operation abort into the model's
// only legal way out of an operation — a crash — followed by recovery
// attempts until the process is back or the run ends.
func crashClientAfterAbort(ctx context.Context, client recmem.Client) {
	if err := client.Crash(ctx); err != nil {
		return // already down; someone else records the crash
	}
	for ctx.Err() == nil {
		err := client.Recover(ctx)
		if err == nil || errors.Is(err, recmem.ErrNotDown) {
			return
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
		}
	}
}

// RecordClients wraps every client through the group for history recording,
// so a run yields per-client histories that merge into a verifiable global
// one (docs/adr/0004) — the way live-mesh runs, which have no global
// observer, get checked. Hand the returned clients to both RunClients and
// ClientFaults, or the merged history misses the injected crashes. The
// returned slice preserves order: client i records as process i when the
// group is fresh.
func RecordClients(g *recmem.RecordingGroup, clients []recmem.Client) []recmem.Client {
	out := make([]recmem.Client, len(clients))
	for i, c := range clients {
		out[i] = g.Wrap(c)
	}
	return out
}

// ClientFaultOptions configures client-driven crash/recovery injection.
type ClientFaultOptions struct {
	// Seed seeds the injector's private random source.
	Seed int64
	// MaxDown bounds how many clients' processes may be simultaneously
	// down (default: n - ⌈(n+1)/2⌉, keeping a majority up — the paper's
	// liveness assumption; the bound assumes one client per process).
	MaxDown int
	// MeanInterval is the average pause between fault actions (default
	// 5 ms).
	MeanInterval time.Duration
}

// ClientFaults injects random crashes and recoveries through the Client
// interface until ctx is done, then recovers everything it downed and
// returns the number of crashes injected. It works identically against the
// simulated cluster and a live mesh.
func ClientFaults(ctx context.Context, clients []recmem.Client, opts ClientFaultOptions) int {
	n := len(clients)
	if opts.MaxDown <= 0 {
		opts.MaxDown = n - (n+2)/2
	}
	if opts.MaxDown <= 0 {
		return 0 // nothing can safely crash
	}
	if opts.MeanInterval <= 0 {
		opts.MeanInterval = 5 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	down := make(map[int]bool)
	crashes := 0
	for ctx.Err() == nil {
		d := time.Duration(rng.Int63n(int64(2*opts.MeanInterval) + 1))
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		if len(down) < opts.MaxDown && (len(down) == 0 || rng.Float64() < 0.5) {
			i := rng.Intn(n)
			if down[i] {
				continue
			}
			if err := clients[i].Crash(ctx); err == nil {
				down[i] = true
				crashes++
			}
		} else {
			for i := range down {
				if err := clients[i].Recover(ctx); err == nil || errors.Is(err, recmem.ErrNotDown) {
					delete(down, i)
				}
				break
			}
		}
	}
	// Leave the system healthy: recover everything still down. The
	// injection context has typically expired by now (that is what ended
	// the loop), so cleanup runs under its own bounded context.
	cleanup, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := range down {
		for cleanup.Err() == nil {
			err := clients[i].Recover(cleanup)
			if err == nil || errors.Is(err, recmem.ErrNotDown) {
				break
			}
			select {
			case <-time.After(2 * time.Millisecond):
			case <-cleanup.Done():
			}
		}
	}
	return crashes
}
