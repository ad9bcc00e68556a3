// Command recmem-torture stress-tests an emulation: it drives a concurrent
// read/write workload while randomly crashing and recovering processes (and
// optionally dropping/duplicating messages), then model-checks the recorded
// history against the algorithm's consistency criterion. A non-zero exit
// means a real atomicity violation was found.
//
// The scenario itself — workload.RunClients plus workload.ClientFaults — is
// written against the backend-agnostic recmem.Client interface and runs
// unmodified against two backends:
//
//   - the default in-process simulated cluster, where the recorded history
//     is verified after the run, and
//   - a live TCP mesh (-remote addr,addr,...), where each address is a
//     recmem-node control port dialed through the remote package; the same
//     crash/recover sweeps and pipelined async windows are driven over the
//     wire. With -verify, every client is wrapped in a recording client
//     (recmem.RecordingGroup): the per-client histories — wall-clock
//     stamped, carrying the protocol's tag witnesses — are merged onto one
//     timeline (history.Merge, docs/adr/0004) and model-checked against the
//     criterion of the algorithm the mesh reports, exactly like a simulated
//     round. Without -verify the round only asserts operational health.
//
// With -kill (docs/adr/0005) the run additionally injects REAL process
// death: it spawns the mesh's recmem-node processes itself (one command
// line per -remote address, ';;'-separated) and, mid-round, SIGKILLs one
// and re-execs it — the process loses its volatile state and every client
// connection; the restarted incarnation recovers from stable storage before
// reopening its control port, and the reconnect layer in the remote client
// brings the same handles back without the scenario re-dialing. Combined
// with -verify, the merged recorded history of a round spanning real
// process death is model-checked like any other.
//
// Usage:
//
//	recmem-torture -algorithm persistent -n 5 -ops 200 -rounds 10
//	recmem-torture -algorithm transient -loss 0.2 -dup 0.1 -seed 7
//	recmem-torture -algorithm persistent -disk wal -diskfail 0.2
//	recmem-torture -remote :7200,:7201,:7202 -ops 200 -async 16 -verify
//	recmem-torture -remote :7200,:7201,:7202 -verify \
//	    -kill 'recmem-node -id 0 ...;;recmem-node -id 1 ...;;recmem-node -id 2 ...'
//
// -disk selects the stable-storage engine (mem, or wal — the log engine;
// sharded is an alias for it). -diskfail wraps every disk in a
// stable.Flaky that fails Store/StoreBatch with the given probability: a
// replica whose group commit fails acknowledges nothing, so the checkers
// prove that injected mid-group-commit failures never let an acknowledged
// log be lost.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"recmem"
	"recmem/internal/cluster"
	"recmem/internal/core"
	"recmem/internal/netsim"
	"recmem/internal/procfault"
	"recmem/internal/stable"
	"recmem/internal/workload"
	"recmem/remote"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recmem-torture:", err)
		os.Exit(1)
	}
}

// options is the parsed command line shared by both backends.
type options struct {
	kind     core.AlgorithmKind
	n        int
	ops      int
	seed     int64
	loss     float64
	dup      float64
	reads    float64
	regs     int
	async    int
	hardened bool
	oneRound bool
	faultFor time.Duration
	traceCap int
	disk     string
	diskFail float64
	remote   []string
	verify   bool
	populate int

	// killCmds, when non-empty, makes the torture run OWN the mesh's node
	// processes: it spawns one command per -remote address and the kill
	// schedule SIGKILLs + re-execs them mid-round (internal/procfault) — a
	// real process death, not a simulated one.
	killCmds   [][]string
	killCycles int
	killDelay  time.Duration
	killDown   time.Duration
}

func run(args []string) error {
	fs := flag.NewFlagSet("recmem-torture", flag.ContinueOnError)
	var (
		algorithm  = fs.String("algorithm", "persistent", "simulated rounds: crash-stop, transient, persistent, or naive (a -remote mesh reports its own)")
		n          = fs.Int("n", 5, "number of processes")
		ops        = fs.Int("ops", 100, "operations per process per round")
		rounds     = fs.Int("rounds", 5, "independent torture rounds")
		seed       = fs.Int64("seed", time.Now().UnixNano(), "base random seed")
		loss       = fs.Float64("loss", 0, "message loss rate [0,1)")
		dup        = fs.Float64("dup", 0, "message duplication rate [0,1)")
		reads      = fs.Float64("reads", 0.4, "fraction of operations that are reads")
		regs       = fs.Int("registers", 2, "number of registers")
		async      = fs.Int("async", 0, "submission window per client (>= 2 engages the batching engine)")
		hardened   = fs.Bool("hardened", false, "use hardened tags for the transient algorithm")
		oneRound   = fs.Bool("one-round-reads", false, "simulated rounds: reads whose majority already agrees on one logged tag return after one round (docs/adr/0015); recmem-node always runs them")
		faultFor   = fs.Duration("faults", time.Second, "fault-injection duration per round")
		traceCap   = fs.Int("trace", 0, "protocol trace capacity; dumped when a violation is found (0 = off)")
		disk       = fs.String("disk", "mem", "stable-storage engine: "+strings.Join(stable.Backends(), ", "))
		diskFail   = fs.Float64("diskfail", 0, "injected Store/StoreBatch failure rate [0,1)")
		remoteFlag = fs.String("remote", "", "comma-separated recmem-node control addresses: drive a live mesh instead of the simulator")
		verify     = fs.Bool("verify", false, "with -remote: record per-client histories, merge them by wall clock + tag witness, and model-check the run so far after each round (docs/adr/0004)")
		populate   = fs.Int("populate", 0, "with -remote: bulk-write this many distinct registers across the mesh before round 1, so kill-restart rounds recover over a populated namespace (docs/adr/0009)")
		killFlag   = fs.String("kill", "", "with -remote: ';;'-separated recmem-node command lines, one per control address; the torture run spawns them and SIGKILLs + restarts real node processes mid-round (docs/adr/0005)")
		killCycles = fs.Int("kill-cycles", 2, "SIGKILL+restart cycles per round under -kill")
		killDelay  = fs.Duration("kill-delay", 300*time.Millisecond, "pause before the first kill and between cycles")
		killDown   = fs.Duration("kill-down", 200*time.Millisecond, "how long a killed process stays dead before re-exec")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := core.ParseAlgorithm(*algorithm)
	if err != nil {
		return err
	}
	if !stable.ValidBackend(*disk) {
		return fmt.Errorf("-disk: unknown engine %q (want one of %s)", *disk, strings.Join(stable.Backends(), ", "))
	}
	o := options{
		kind: kind, n: *n, ops: *ops, seed: *seed, loss: *loss, dup: *dup,
		reads: *reads, regs: *regs, async: *async, hardened: *hardened, oneRound: *oneRound,
		faultFor: *faultFor, traceCap: *traceCap, disk: *disk, diskFail: *diskFail,
		verify: *verify, populate: *populate,
	}
	if *remoteFlag != "" {
		// Trimmed once here: every consumer (round dials, readiness
		// probes, the kill schedule) sees the same canonical addresses.
		for _, addr := range strings.Split(*remoteFlag, ",") {
			o.remote = append(o.remote, strings.TrimSpace(addr))
		}
	}
	if kind == core.RegularSW && len(o.remote) == 0 {
		// The simulated scenario writes from every client; the single-writer
		// register would refuse all but process 0's.
		return fmt.Errorf("-algorithm %v: simulated rounds write from every process", kind)
	}
	if o.verify && len(o.remote) == 0 {
		return fmt.Errorf("-verify applies to -remote runs (simulated rounds always verify)")
	}
	if o.populate > 0 && len(o.remote) == 0 {
		return fmt.Errorf("-populate applies to -remote runs")
	}
	o.killCycles, o.killDelay, o.killDown = *killCycles, *killDelay, *killDown
	if *killFlag != "" {
		if len(o.remote) == 0 {
			return fmt.Errorf("-kill applies to -remote runs")
		}
		for _, cmd := range strings.Split(*killFlag, ";;") {
			argv := strings.Fields(strings.TrimSpace(cmd))
			if len(argv) == 0 {
				return fmt.Errorf("-kill: empty command")
			}
			o.killCmds = append(o.killCmds, argv)
		}
		if len(o.killCmds) != len(o.remote) {
			return fmt.Errorf("-kill: %d commands for %d -remote addresses", len(o.killCmds), len(o.remote))
		}
	}

	// Under -kill the torture run owns the node processes for its whole
	// lifetime (they persist across rounds, like an externally managed
	// mesh); the kill schedule inside each round SIGKILLs and re-execs
	// them.
	procs, err := spawnMesh(o)
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()

	// Remote clients persist across rounds — one dial per node for the whole
	// run, like a deployment's long-lived clients, with the reconnect layer
	// riding out any mid-run process death. With -verify one recording group
	// records the whole run and each round verifies everything recorded so
	// far, so a read in round 3 answered by a round-2 writer is checked
	// against that writer instead of an amnesiac blank slate.
	var (
		raw   []*remote.Client
		group *recmem.RecordingGroup
	)
	if len(o.remote) > 0 {
		for _, addr := range o.remote {
			c, err := remote.Dial(addr, remote.Options{})
			if err != nil {
				return fmt.Errorf("dial %s: %w", addr, err)
			}
			defer c.Close()
			raw = append(raw, c)
		}
		if o.verify {
			group = recmem.NewRecordingGroup()
		}
		if o.populate > 0 {
			if err := populateMesh(raw, o.populate); err != nil {
				return fmt.Errorf("populate: %w", err)
			}
		}
	}

	for round := 0; round < *rounds; round++ {
		roundSeed := *seed + int64(round)*1_000_003
		o.seed = roundSeed
		var err error
		if len(o.remote) > 0 {
			err = remoteRound(o, procs, raw, group)
		} else {
			err = tortureRound(o)
		}
		if err != nil {
			return fmt.Errorf("round %d (seed %d): %w", round, roundSeed, err)
		}
		fmt.Printf("round %d ok (seed %d)\n", round, roundSeed)
	}
	if len(o.remote) > 0 {
		fmt.Printf("all %d rounds passed against the live mesh %v\n", *rounds, o.remote)
		return nil
	}
	fmt.Printf("all %d rounds passed: %s emulation upheld %s\n",
		*rounds, kind, recmem.CriterionFor(kind))
	return nil
}

// mixFor builds the operation mix both backends drive.
func mixFor(o options) workload.Mix {
	names := make([]string, o.regs)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	mix := workload.Mix{ReadFraction: o.reads, Registers: names, Async: o.async}
	if o.diskFail > 0 {
		// A writer whose own log fails aborts its operation: expected under
		// storage fault injection, equivalent to a crash for the checkers.
		mix.Forgive = func(err error) bool { return errors.Is(err, stable.ErrInjected) }
	}
	return mix
}

// scenario is the backend-agnostic torture round: fault sweeps through the
// Client interface while RunClients drives the mix. The identical function
// runs against the simulator's clients and against remote.Dial'ed ones.
func scenario(ctx context.Context, clients []recmem.Client, o options, faults bool) (workload.Result, int, error) {
	faultsDone := make(chan int, 1)
	if faults {
		// Exercise every client once BEFORE the fault sweep starts: each
		// recorder observes its node's incarnation epoch while the node is
		// provably up, so a later crash floors that epoch and any node whose
		// post-crash replies fail to mint past it is caught — regardless of
		// whether the (op-count-bound) workload is still running when the
		// faults land. Without this, a fast engine can drain the whole
		// workload before the first crash and the epoch inference never gets
		// a post-crash reply to check.
		for i, c := range clients {
			reg := c.Register("r0")
			// A concurrent kill schedule (remote rounds) can take the node
			// down mid-warm-up; ride the outage like the final probes do,
			// each attempt writing its own value: a failed one may still
			// take effect, and written values are unique per register.
			if err := retryOutage(ctx, func(attempt int) error {
				return reg.Write(ctx, fmt.Appendf(nil, "warmup-%d@%d.%d", i, o.seed, attempt))
			}); err != nil {
				return workload.Result{}, 0, fmt.Errorf("pre-fault warm-up through client %d: %w", i, err)
			}
		}
		faultCtx, stopFaults := context.WithTimeout(ctx, o.faultFor)
		defer stopFaults()
		go func() {
			faultsDone <- workload.ClientFaults(faultCtx, clients, workload.ClientFaultOptions{
				Seed: o.seed, MeanInterval: 10 * time.Millisecond,
			})
		}()
	} else {
		faultsDone <- 0
	}
	res := workload.RunClients(ctx, clients, o.ops, mixFor(o), o.seed)
	crashes := <-faultsDone
	return res, crashes, nil
}

// tortureRound runs the scenario against a fresh simulated cluster and
// model-checks the recorded history.
func tortureRound(o options) error {
	cfg := cluster.Config{
		N:         o.n,
		Algorithm: o.kind,
		Node: core.Options{
			RetransmitEvery: 5 * time.Millisecond,
			HardenedTags:    o.hardened,
			OneRoundReads:   o.oneRound,
		},
		Net:           netsim.Options{LossRate: o.loss, DupRate: o.dup, Seed: o.seed},
		TraceCapacity: o.traceCap,
	}
	// Every engine opens through the one switch; mem leaves the directory
	// empty.
	diskDir, err := os.MkdirTemp("", "recmem-torture-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(diskDir)
	cfg.DiskFactory = func(id int32) (stable.Storage, error) {
		s, err := stable.OpenBackend(o.disk, fmt.Sprintf("%s/node%d", diskDir, id), stable.Profile{})
		if err != nil {
			return nil, err
		}
		if o.diskFail > 0 {
			s = stable.NewFlaky(s, o.diskFail, o.seed+int64(id)*104_729)
		}
		return s, nil
	}
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	clients := workload.Clients(c, workload.AllProcs(o.n))
	res, crashes, err := scenario(ctx, clients, o, o.kind.Recovers())
	if err != nil {
		return err
	}
	// With storage faults injected, a recovery's own log can fail too;
	// retry until the store lets it through (faults are probabilistic).
	for {
		err := c.RecoverAll(ctx)
		if err == nil {
			break
		}
		if !(o.diskFail > 0 && errors.Is(err, stable.ErrInjected)) || ctx.Err() != nil {
			return fmt.Errorf("recover all: %w", err)
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("workload saw %d unexpected errors", res.Errors)
	}
	fmt.Printf("  %d writes, %d reads, %d interrupted, %d crashes injected\n",
		res.Writes, res.Reads, res.Interrupted, crashes)
	if err := recmem.VerifyHistory(c.History(), recmem.CriterionFor(o.kind)); err != nil {
		// A real violation: dump the protocol trace if one was kept.
		if c.DumpTrace(os.Stderr) {
			fmt.Fprintln(os.Stderr, "--- protocol trace above ---")
		}
		return err
	}
	return nil
}

// spawnMesh starts the node processes of a -kill run and waits until every
// control port answers. A run without -kill returns nil and dials whatever
// mesh the caller points it at.
func spawnMesh(o options) ([]*procfault.Proc, error) {
	if len(o.killCmds) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	procs := make([]*procfault.Proc, 0, len(o.killCmds))
	stop := func() {
		for _, p := range procs {
			p.Stop()
		}
	}
	for i, argv := range o.killCmds {
		p, err := procfault.Start(argv, os.Stderr, os.Stderr)
		if err != nil {
			stop()
			return nil, fmt.Errorf("spawn node %d: %w", i, err)
		}
		procs = append(procs, p)
	}
	for i, p := range procs {
		if err := p.WaitReady(ctx, pingProbe(o.remote[i]), 50*time.Millisecond); err != nil {
			stop()
			return nil, fmt.Errorf("node %d never became ready: %w", i, err)
		}
	}
	fmt.Printf("spawned %d node processes (pids", len(procs))
	for _, p := range procs {
		fmt.Printf(" %d", p.Pid())
	}
	fmt.Println(") for kill-restart injection")
	return procs, nil
}

// populateMesh bulk-writes count distinct registers through the run-lifetime
// clients before the first round, so every node carries a populated adopted
// namespace when the kill schedule later SIGKILLs it: a restart that rebuilt
// the register map eagerly would pay for all of these before reopening its
// control port, while the lazy recovery (docs/adr/0009) pays only for pending
// writes. The registers live under a bulk- prefix disjoint from the
// workload's r<i> names, and the writes go through the raw, unrecorded
// clients, so round verification is unaffected. Writes are issued from a
// concurrent worker pool per client — the remote protocol pipelines them on
// each connection and the nodes' batching engines coalesce the rounds.
func populateMesh(clients []*remote.Client, count int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	const perClient = 32
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		werr    error
	)
	for w := 0; w < perClient*len(clients); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= count || ctx.Err() != nil {
					return
				}
				reg := clients[i%len(clients)].Register(fmt.Sprintf("bulk-%07d", i))
				if err := reg.Write(ctx, []byte(fmt.Sprintf("v%07d", i))); err != nil {
					errOnce.Do(func() { werr = fmt.Errorf("register bulk-%07d: %w", i, err) })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if werr != nil {
		return werr
	}
	fmt.Printf("populated %d registers across %d nodes in %v\n",
		count, len(clients), time.Since(start).Round(time.Millisecond))
	return nil
}

// pingProbe is the readiness probe for one control address: a fresh dial —
// which runs the version/Info handshake — plus a ping. recmem-node only
// opens the control port after its startup recovery, so a passing probe
// means the node is recovered and serving.
func pingProbe(addr string) func(context.Context) error {
	return func(ctx context.Context) error {
		c, err := remote.Dial(addr, remote.Options{DialTimeout: time.Second, RedialAttempts: -1})
		if err != nil {
			return err
		}
		defer c.Close()
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		defer cancel()
		return c.Ping(pctx)
	}
}

// killSchedule is the process-death fault schedule: every cycle SIGKILLs
// one node process mid-run — volatile state and every TCP connection die
// with it — waits out the outage, re-execs the same command (the node runs
// its recovery procedure from stable storage before reopening the control
// port), and blocks until the control port answers again. Returns the
// number of kills delivered.
func killSchedule(ctx context.Context, o options, procs []*procfault.Proc) (int, error) {
	kills := 0
	for cycle := 0; cycle < o.killCycles && ctx.Err() == nil; cycle++ {
		if !sleepCtx(ctx, o.killDelay) {
			break
		}
		i := cycle % len(procs)
		if err := procs[i].Kill(); err != nil {
			return kills, err
		}
		kills++
		sleepCtx(ctx, o.killDown)
		if err := procs[i].Restart(); err != nil {
			return kills, err
		}
		if err := procs[i].WaitReady(ctx, pingProbe(o.remote[i]), 50*time.Millisecond); err != nil {
			return kills, err
		}
	}
	return kills, nil
}

// sleepCtx pauses for d, reporting false when ctx expired instead.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-ctx.Done():
		return false
	}
}

// remoteRound runs the identical scenario against a live mesh of
// recmem-nodes, through the run-lifetime clients in raw. The round always
// asserts operational health (no unexpected errors, every process healthy
// at the end, a read observing the run's effects); with a recording group
// it additionally records every client's history, merges them by wall
// clock and tag witness, and model-checks the result against the criterion
// of the algorithm the mesh reports — a non-atomic live run fails the
// process exactly like a non-atomic simulated one. With -kill, the
// killSchedule SIGKILLs and restarts real node processes while the
// workload and the protocol-level fault sweeps run.
func remoteRound(o options, procs []*procfault.Proc, raw []*remote.Client, group *recmem.RecordingGroup) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	clients := make([]recmem.Client, len(raw))
	for i, c := range raw {
		clients[i] = c
		if group != nil {
			// All traffic — workload, faults, final probes — goes through
			// the recording wrapper, so the merged history is complete.
			// Every round gets the client's one recording back.
			clients[i] = group.Wrap(c)
		}
	}

	type killResult struct {
		kills int
		err   error
	}
	killDone := make(chan killResult, 1)
	if len(procs) > 0 {
		go func() {
			kills, err := killSchedule(ctx, o, procs)
			killDone <- killResult{kills, err}
		}()
	} else {
		killDone <- killResult{}
	}
	var (
		kr       killResult
		joinedKr bool
	)
	joinKill := func() killResult {
		if !joinedKr {
			kr = <-killDone
			joinedKr = true
		}
		return kr
	}
	// The schedule must be joined on EVERY exit path: a Restart racing the
	// deferred proc Stop in run() would re-exec a node after cleanup and
	// leak it (the Linux parent-death signal is only a best-effort net).
	// Cancelling first bounds the wait.
	defer func() {
		cancel()
		joinKill()
	}()

	res, crashes, err := scenario(ctx, clients, o, true)
	if err != nil {
		return err
	}
	// The round proceeds only once every killed process is back: the
	// schedule's last restart must have completed.
	if kr := joinKill(); kr.err != nil {
		return fmt.Errorf("kill schedule: %w", kr.err)
	}
	// Everything must be recoverable at the end of the round. Clients whose
	// connection died with a killed process may still be redialing — ride
	// that out instead of failing the round on a transient ErrDown.
	for i, c := range clients {
		if err := recoverWhenReachable(ctx, c); err != nil {
			return fmt.Errorf("final recover of node %d: %w", i, err)
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("workload saw %d unexpected errors", res.Errors)
	}
	// The mesh still serves: a write through one client is read through
	// EVERY client. Probing all of them both asserts each node answers
	// after the fault schedule and forces one post-crash reply per node
	// into the recorded history — the reply whose incarnation epoch the
	// recorder holds against the floors set by that node's crashes.
	// Like the warm-up, each attempt writes its own value; the reads must
	// see the one whose attempt succeeded.
	var probe string
	if err := retryOutage(ctx, func(attempt int) error {
		probe = fmt.Sprintf("probe-%d.%d", o.seed, attempt)
		return clients[0].Register("r0").Write(ctx, []byte(probe))
	}); err != nil {
		return fmt.Errorf("final probe write: %w", err)
	}
	for i, c := range clients {
		var got []byte
		err = retryOutage(ctx, func(int) error {
			var rerr error
			got, rerr = c.Register("r0").Read(ctx)
			return rerr
		})
		if err != nil {
			return fmt.Errorf("final probe read through client %d: %v", i, err)
		}
		// Only the last client's value is asserted here: a wrong value from
		// a dishonest node is recorded evidence for the verifier (which must
		// flag it as an atomicity violation), not an operational failure.
		if i == len(clients)-1 && string(got) != probe {
			return fmt.Errorf("final probe read = %q (want %q)", got, probe)
		}
	}
	fmt.Printf("  %d writes, %d reads, %d interrupted, %d crashes injected, %d processes SIGKILLed (live mesh)\n",
		res.Writes, res.Reads, res.Interrupted, crashes, kr.kills)
	if group == nil {
		return nil
	}
	return verifyRemote(ctx, group, raw[0])
}

// recoverWhenReachable drives Recover until the process is confirmed up:
// nil and ErrNotDown both mean "up"; ErrDown and ErrCrashed mean the
// transport (or the process behind it) is still coming back — retry until
// the redialer lands.
func recoverWhenReachable(ctx context.Context, c recmem.Client) error {
	for {
		err := c.Recover(ctx)
		switch {
		case err == nil, errors.Is(err, recmem.ErrNotDown):
			return nil
		case errors.Is(err, recmem.ErrDown), errors.Is(err, recmem.ErrCrashed),
			errors.Is(err, context.DeadlineExceeded):
		default:
			return err
		}
		if !sleepCtx(ctx, 20*time.Millisecond) {
			return ctx.Err()
		}
	}
}

// retryOutage runs op, riding out the reconnect-layer outage errors the
// same way the workload driver does. op gets the attempt number, from 0.
func retryOutage(ctx context.Context, op func(attempt int) error) error {
	for attempt := 0; ; attempt++ {
		err := op(attempt)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, recmem.ErrDown), errors.Is(err, recmem.ErrCrashed):
		default:
			return err
		}
		if !sleepCtx(ctx, 20*time.Millisecond) {
			return ctx.Err()
		}
	}
}

// verifyRemote merges the per-client histories recorded so far in the run
// and checks them against the criterion of the algorithm the mesh reports.
func verifyRemote(ctx context.Context, group *recmem.RecordingGroup, node *remote.Client) error {
	info, err := node.Info(ctx)
	if err != nil {
		return fmt.Errorf("verify: info: %w", err)
	}
	kind, err := core.ParseAlgorithm(info.Algorithm)
	if err != nil {
		return fmt.Errorf("verify: mesh reports: %w", err)
	}
	cr := recmem.CriterionFor(kind)
	merged, err := group.Merged()
	if err != nil {
		return fmt.Errorf("verify: merge: %w", err)
	}
	if err := recmem.VerifyHistory(merged, cr); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	fmt.Printf("  verified %d merged events against %v\n", len(merged), cr)
	return nil
}
