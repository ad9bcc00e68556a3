package main

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"recmem"
	"recmem/remote"
)

// startTestNode brings up a single-process node (n = 1, quorum 1 — the
// mesh loopback short-circuits, so no real peer dialing happens) with the
// control port on an ephemeral port, and dials it.
func startTestNode(t *testing.T, algorithm string) *remote.Client {
	t.Helper()
	ns, err := startNode(nodeConfig{
		id:        0,
		peers:     []string{"127.0.0.1:0"},
		control:   "127.0.0.1:0",
		algorithm: algorithm,
		disk:      "mem",
		opTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	c, err := remote.Dial(ns.ControlAddr(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestControlProtocol drives a node end to end through the binary control
// port: info, write/read, crash/recover, error surfacing.
func TestControlProtocol(t *testing.T) {
	c := startTestNode(t, "persistent")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	info, err := c.Info(ctx)
	if err != nil || info.N != 1 || info.Algorithm != "persistent" {
		t.Fatalf("info = %+v, %v", info, err)
	}
	x := c.Register("x")
	if err := x.Write(ctx, []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := x.Read(ctx)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read = %q, %v", got, err)
	}
	if got, err := c.Register("nothing").Read(ctx); err != nil || got != nil {
		t.Fatalf("read of untouched register = %q, %v", got, err)
	}
	if err := c.Crash(ctx); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := c.Crash(ctx); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("double crash: %v", err)
	}
	if err := x.Write(ctx, []byte("nope")); !errors.Is(err, recmem.ErrDown) {
		t.Fatalf("write while down: %v", err)
	}
	if err := c.Recover(ctx); err != nil {
		t.Fatalf("recover: %v", err)
	}
	got, err = x.Read(ctx)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read after recover = %q, %v", got, err)
	}
}

// TestAlgorithmNamesBoot: every name a node reports over Info — regular-sw
// included, which the node's own name table used to reject — is a name
// -algorithm accepts.
func TestAlgorithmNamesBoot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, name := range []string{"crash-stop", "transient", "persistent", "naive", "regular-sw"} {
		info, err := startTestNode(t, name).Info(ctx)
		if err != nil || info.Algorithm != name {
			t.Fatalf("-algorithm %s: node reports %+v, %v", name, info, err)
		}
	}
}

// TestWALBackedNode runs a node on the WAL storage engine.
func TestWALBackedNode(t *testing.T) {
	ns, err := startNode(nodeConfig{
		id:        0,
		peers:     []string{"127.0.0.1:0"},
		control:   "127.0.0.1:0",
		algorithm: "persistent",
		disk:      "wal",
		dir:       t.TempDir(),
		opTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	c, err := remote.Dial(ns.ControlAddr(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Register("x").Write(ctx, []byte("walled")); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := c.Register("x").Read(ctx)
	if err != nil || string(got) != "walled" {
		t.Fatalf("read after WAL recovery = %q, %v", got, err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("accepted empty args")
	}
	if err := run([]string{"-peers", "a,b", "-id", "7", "-control", ":0"}); err == nil {
		t.Fatal("accepted out-of-range id")
	}
	if err := run([]string{"-peers", "a,b", "-id", "0"}); err == nil {
		t.Fatal("accepted missing control address")
	}
	if err := run([]string{"-peers", "127.0.0.1:0,x", "-id", "0", "-control", ":0", "-algorithm", "zzz"}); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if err := run([]string{"-peers", "127.0.0.1:0,x", "-id", "0", "-control", ":0", "-algorithm", "persistent"}); err == nil {
		t.Fatal("accepted missing -dir for a recovery algorithm with a real disk")
	}
	if err := run([]string{"-peers", "127.0.0.1:0,x", "-id", "0", "-control", ":0", "-disk", "floppy"}); err == nil {
		t.Fatal("accepted unknown disk engine")
	}
}

// TestDefaultDiskIsWAL pins what a node started without -disk opens: the wal
// preset of the log engine (a MANIFEST appears under -dir), which refuses a
// directory still holding the retired file backend's records instead of
// coming up empty over them.
func TestDefaultDiskIsWAL(t *testing.T) {
	start := func(dir string) (*nodeServer, error) {
		cfg, err := parseFlags([]string{"-peers", "127.0.0.1:0", "-control", "127.0.0.1:0", "-dir", dir})
		if err != nil {
			t.Fatal(err)
		}
		return startNode(cfg)
	}
	fresh := t.TempDir()
	ns, err := start(fresh)
	if err != nil {
		t.Fatal(err)
	}
	ns.Close()
	if _, err := os.Stat(filepath.Join(fresh, "MANIFEST")); err != nil {
		t.Fatalf("default -disk left no log-engine MANIFEST: %v", err)
	}

	old := t.TempDir()
	rec := hex.EncodeToString([]byte("written/x")) + ".rec"
	if err := os.WriteFile(filepath.Join(old, rec), []byte("acknowledged"), 0o644); err != nil {
		t.Fatal(err)
	}
	ns, err = start(old)
	if err == nil {
		ns.Close()
		t.Fatal("node came up empty over a retired file-backend directory")
	}
	if !strings.Contains(err.Error(), "retired file backend") {
		t.Fatalf("error does not name the retired backend: %v", err)
	}
	if _, err := os.Stat(filepath.Join(old, "MANIFEST")); err == nil {
		t.Fatal("refused start left a MANIFEST behind")
	}
	if err := run([]string{"-peers", "127.0.0.1:0", "-control", "127.0.0.1:0", "-dir", old, "-disk", "file"}); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Fatalf("-disk file: %v", err)
	}
}

// TestRestartRecovery proves a recmem-node restart is the paper's
// crash+recover: the process's volatile state dies with it (here: the first
// nodeServer is torn down without any protocol-level Crash/Recover), and a
// fresh process over the same -dir rebuilds its registers from the
// persisted logs and runs the recovery procedure before the control port
// opens. The subtest is named after the -disk value.
func TestRestartRecovery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		cfg := nodeConfig{
			id:        0,
			peers:     []string{"127.0.0.1:0"},
			control:   "127.0.0.1:0",
			algorithm: "persistent",
			disk:      "wal",
			dir:       dir,
			opTimeout: 30 * time.Second,
		}
		ns, err := startNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := remote.Dial(ns.ControlAddr(), remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register("x").Write(ctx, []byte("survives-restart")); err != nil {
			t.Fatal(err)
		}
		c.Close()
		ns.Close() // SIGKILL stand-in: no Crash/Recover ran, volatile state is gone

		ns2, err := startNode(cfg)
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		defer ns2.Close()
		c2, err := remote.Dial(ns2.ControlAddr(), remote.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		got, err := c2.Register("x").Read(ctx)
		if err != nil || string(got) != "survives-restart" {
			t.Fatalf("read after restart = %q, %v", got, err)
		}
	})
}

// TestRestartBumpsRecoveryCounter: under the transient-family algorithms the
// startup recovery procedure is Fig. 5's counter bump — every real process
// restart must advance the persisted recovery count, or a writer that died
// mid-write could re-mint the interrupted write's timestamp.
func TestRestartBumpsRecoveryCounter(t *testing.T) {
	dir := t.TempDir()
	cfg := nodeConfig{
		id:        0,
		peers:     []string{"127.0.0.1:0"},
		control:   "127.0.0.1:0",
		algorithm: "transient",
		disk:      "wal",
		dir:       dir,
		opTimeout: 30 * time.Second,
	}
	var recs []int32
	for i := 0; i < 3; i++ {
		ns, err := startNode(cfg)
		if err != nil {
			t.Fatalf("start %d: %v", i, err)
		}
		recs = append(recs, ns.node.RecoveryCount())
		if ns.bootRecovery <= 0 {
			t.Fatalf("start %d: no boot recovery ran", i)
		}
		ns.Close()
	}
	for i, rec := range recs {
		if want := int32(i + 1); rec != want {
			t.Fatalf("recovery counts across restarts = %v, want [1 2 3]", recs)
		}
	}
}

// TestShutdownBanner checks the dispatch-accounting line the node prints on
// shutdown: after a burst of completed operations the banner must report
// zero in-flight, every completion, and no deadline drops.
func TestShutdownBanner(t *testing.T) {
	ns, err := startNode(nodeConfig{
		id:        0,
		peers:     []string{"127.0.0.1:0"},
		control:   "127.0.0.1:0",
		algorithm: "persistent",
		disk:      "mem",
		opTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	c, err := remote.Dial(ns.ControlAddr(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := c.Register("banner")
	const ops = 32
	for i := 0; i < ops; i++ {
		if err := reg.Write(ctx, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Entry recycling decrements the in-flight gauge just after the reply is
	// queued; give it a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		inflight, completions, deadlines := ns.srv.DispatchStats()
		if inflight == 0 && completions >= ops {
			if deadlines != 0 {
				t.Fatalf("deadline drops on the happy path: %d", deadlines)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dispatch stats never settled: inflight=%d completions=%d", inflight, completions)
		}
		time.Sleep(time.Millisecond)
	}

	banner := shutdownBanner(0, ns.srv)
	if !strings.Contains(banner, "in-flight=0") {
		t.Fatalf("banner missing drained in-flight gauge: %q", banner)
	}
	if !strings.Contains(banner, "deadline-drops=0") {
		t.Fatalf("banner missing deadline counter: %q", banner)
	}
	var completions uint64
	if _, err := fmt.Sscanf(banner[strings.Index(banner, "callback-completions="):], "callback-completions=%d", &completions); err != nil || completions < ops {
		t.Fatalf("banner completions = %d (err %v), want ≥%d: %q", completions, err, ops, banner)
	}
}

// TestReadRoundsBanner: the node runs one-round reads (docs/adr/0015) and the
// shutdown line's tail reports which path its reads took, then the replica's
// group commits. On a single-process
// node the majority is the node itself, so every read agrees.
func TestReadRoundsBanner(t *testing.T) {
	ns, err := startNode(nodeConfig{
		id: 0, peers: []string{"127.0.0.1:0"}, control: "127.0.0.1:0",
		algorithm: "persistent", disk: "mem", opTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.Close)
	c, err := remote.Dial(ns.ControlAddr(), remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	x := c.Register("x")
	if err := x.Write(ctx, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got, err := x.Read(ctx); err != nil || string(got) != "v" {
			t.Fatalf("read = %q, %v", got, err)
		}
	}
	if got, want := readRoundsBanner(ns.node), " one-round-reads=3 two-round-reads=0"; got != want {
		t.Fatalf("banner tail %q, want %q", got, want)
	}
	// The one write cost the node's logger two group commits of one record:
	// the writer's pre-log, then — after it, by Fig. 4's order — the one
	// replica's adoption (docs/adr/0019).
	if got, want := adoptionsBanner(ns.node), " log-groups=2 log-records=2 (1.0 records/group)"; got != want {
		t.Fatalf("adoptions banner %q, want %q", got, want)
	}
}
