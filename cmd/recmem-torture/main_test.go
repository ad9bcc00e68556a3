package main

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"recmem"
	"recmem/internal/core"
	"recmem/internal/nettcp"
	"recmem/internal/stable"
	"recmem/remote"
)

// TestAlgorithmByName: -algorithm resolves through core.ParseAlgorithm, and
// the single-writer register — which parses, under both spellings — is
// refused for simulated rounds by torture's own check.
func TestAlgorithmByName(t *testing.T) {
	for _, name := range []string{"crash-stop", "transient", "persistent", "naive"} {
		if kind := mustKind(t, name); kind.String() != name {
			t.Fatalf("%s mapped to %v", name, kind)
		}
	}
	for _, name := range []string{"regular-sw", "regular"} {
		err := run([]string{"-algorithm", name, "-rounds", "1"})
		if err == nil || !strings.Contains(err.Error(), "simulated rounds") {
			t.Fatalf("-algorithm %s: %v", name, err)
		}
	}
}

// opts builds a small, fast round configuration.
func opts(kind string, t *testing.T) options {
	return options{
		kind: mustKind(t, kind), n: 3, ops: 10, seed: 42,
		reads: 0.5, regs: 1, faultFor: 100 * time.Millisecond, disk: "mem",
	}
}

func TestTortureRoundPersistent(t *testing.T) {
	o := opts("persistent", t)
	o.traceCap = 256
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

func TestTortureRoundAsync(t *testing.T) {
	o := opts("persistent", t)
	o.async = 8
	o.ops = 24
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

func TestTortureRoundTransientWithLoss(t *testing.T) {
	o := opts("transient", t)
	o.ops, o.seed, o.loss, o.dup, o.regs, o.hardened = 8, 7, 0.1, 0.05, 2, true
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

func TestTortureRoundCrashStop(t *testing.T) {
	o := opts("crash-stop", t)
	o.seed, o.faultFor = 3, 0
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

// TestTortureRoundWALFlaky is the wal-disk torture scenario: crash/recovery
// injection over the log-structured engine with injected Store/StoreBatch
// failures mid-group-commit. The atomicity check proves that a failed group
// commit never acknowledged a lost log — a violation would surface as a
// read missing an acknowledged write after a crash.
func TestTortureRoundWALFlaky(t *testing.T) {
	o := opts("persistent", t)
	o.ops, o.seed, o.regs, o.traceCap, o.disk, o.diskFail = 12, 99, 2, 256, "wal", 0.2
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

// TestTortureRoundWALTransient exercises the recovery-counter path (Fig. 5)
// over the wal engine, where the recovery log itself can be refused by an
// injected fault and must be retried.
func TestTortureRoundWALTransient(t *testing.T) {
	o := opts("transient", t)
	o.seed, o.reads, o.hardened, o.disk, o.diskFail = 5, 0.4, true, "wal", 0.15
	if err := tortureRound(o); err != nil {
		t.Fatal(err)
	}
}

// bootMesh starts a live n-node TCP mesh; staleNode (if >= 0) gets a
// dishonest control server that freezes read replies (ServerOptions.
// StaleReads). It returns the control addresses.
func bootMesh(t *testing.T, n int, staleNode int) []string {
	t.Helper()
	meshes := make([]*nettcp.Mesh, n)
	peers := make([]string, n)
	for i := range meshes {
		m, err := nettcp.Listen(int32(i), "127.0.0.1:0", nettcp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		meshes[i] = m
		peers[i] = m.Addr()
	}
	ids := &atomic.Uint64{}
	addrs := make([]string, n)
	for i := range meshes {
		meshes[i].SetPeers(peers)
		nd, err := core.NewNode(int32(i), n, core.Persistent,
			core.Options{RetransmitEvery: 10 * time.Millisecond},
			core.Deps{Endpoint: meshes[i], Storage: stable.NewMemDisk(stable.Profile{}), IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := remote.Serve(ln, nd, remote.ServerOptions{
			OpTimeout: 30 * time.Second, StaleReads: i == staleNode,
		})
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// dialMesh dials run-lifetime clients for every control address, like run()
// does before its round loop.
func dialMesh(t *testing.T, addrs []string) []*remote.Client {
	t.Helper()
	raw := make([]*remote.Client, len(addrs))
	for i, addr := range addrs {
		c, err := remote.Dial(addr, remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		raw[i] = c
	}
	return raw
}

// TestRemoteRound is the acceptance scenario: the identical torture round —
// same workload.RunClients, same workload.ClientFaults — driven against a
// real 3-node TCP mesh through the remote package, selected only by which
// clients are passed in; with a recording group, the recorded per-client
// histories are merged and model-checked.
func TestRemoteRound(t *testing.T) {
	o := opts("persistent", t)
	o.remote = bootMesh(t, 3, -1)
	o.ops = 20
	o.async = 6
	o.verify = true
	if err := remoteRound(o, nil, dialMesh(t, o.remote), recmem.NewRecordingGroup()); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteRoundVerifyCatchesStaleMesh is the negative control of the
// acceptance criterion: the same verified round against a mesh whose node 1
// serves stale reads must fail with an atomicity violation.
func TestRemoteRoundVerifyCatchesStaleMesh(t *testing.T) {
	o := opts("persistent", t)
	o.remote = bootMesh(t, 3, 1)
	o.ops = 20
	o.faultFor = 0 // keep the stale reads completed, not crash-interrupted
	o.verify = true
	raw := dialMesh(t, o.remote)
	err := remoteRound(o, nil, raw, recmem.NewRecordingGroup())
	if err == nil {
		t.Fatal("verified round passed against a stale-serving mesh")
	}
	if !strings.Contains(err.Error(), "violation") {
		t.Fatalf("err = %v, want an atomicity violation", err)
	}
	// The identical dishonest mesh passes when verification is off — the
	// old operational-health round cannot see the lie (the PR-3 gap).
	o.verify = false
	o.seed++
	if err := remoteRound(o, nil, raw, nil); err != nil {
		t.Fatalf("unverified round should not detect staleness: %v", err)
	}
}

func TestRunFullFlow(t *testing.T) {
	for _, extra := range [][]string{nil, {"-one-round-reads"}} {
		err := run(append([]string{
			"-algorithm", "persistent", "-n", "3", "-ops", "5",
			"-rounds", "2", "-seed", "11", "-faults", "50ms",
		}, extra...))
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
	}
}

func TestRunRejectsBadAlgorithm(t *testing.T) {
	if err := run([]string{"-algorithm", "nope"}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
}

func mustKind(t *testing.T, name string) core.AlgorithmKind {
	t.Helper()
	kind, err := core.ParseAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	return kind
}

// TestKillFlagValidation pins the -kill command-line contract: it requires
// -remote, exactly one command per control address, and no empty commands.
func TestKillFlagValidation(t *testing.T) {
	if err := run([]string{"-kill", "a b"}); err == nil {
		t.Fatal("accepted -kill without -remote")
	}
	if err := run([]string{"-remote", ":1,:2", "-kill", "only-one-cmd"}); err == nil {
		t.Fatal("accepted a command-count mismatch")
	}
	if err := run([]string{"-remote", ":1,:2", "-kill", "a;; ;;c"}); err == nil {
		t.Fatal("accepted an empty command")
	}
}

// TestRetryOutageNumbersAttempts: every attempt after an outage error gets
// its own number, which the warm-up and probe writes put in their values —
// a failed attempt may still take effect, so no two attempts may write the
// same bytes.
func TestRetryOutageNumbersAttempts(t *testing.T) {
	var seen []int
	err := retryOutage(context.Background(), func(attempt int) error {
		seen = append(seen, attempt)
		if attempt < 2 {
			return recmem.ErrDown
		}
		return nil
	})
	if err != nil || len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("retryOutage = %v after attempts %v, want nil after 0 1 2", err, seen)
	}
}
