// Package cluster assembles a complete emulation: n processes (internal/core
// nodes) over a simulated fair-lossy network (internal/netsim) with per-
// process stable storage (internal/stable), plus the harness-side observers
// the paper's model assumes but the processes never see — a global clock, a
// history recorder feeding the atomicity checkers, causal-log and message
// meters, and latency histograms for the performance analysis of §V.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"recmem/internal/atomicity"
	"recmem/internal/causal"
	"recmem/internal/clock"
	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/metrics"
	"recmem/internal/netsim"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/internal/trace"
	"recmem/internal/transport"
)

// Config describes a cluster.
type Config struct {
	// N is the number of processes (must be >= 1).
	N int
	// Algorithm selects the emulation all processes run.
	Algorithm core.AlgorithmKind
	// Node tunes the per-node options (retransmission, hardened tags,
	// ablations).
	Node core.Options
	// Net configures the simulated network (latency profile, loss,
	// duplication, seed).
	Net netsim.Options
	// Disk is the simulated stable-storage latency profile. Ignored when
	// DiskFactory is set or DiskBackend selects a real engine.
	Disk stable.Profile
	// DiskBackend names each process's stable-storage engine when DiskFactory
	// is not set, as stable.OpenBackend spells it: "mem" (default — the
	// simulated disk with the Disk profile), or "wal", the log engine, which
	// lives under DiskDir/node<i>.
	DiskBackend string
	// DiskDir roots the wal backend; required for it.
	DiskDir string
	// DiskFactory, if set, overrides DiskBackend and supplies each process's
	// stable storage. The storage must survive Crash/Recover cycles.
	DiskFactory func(id int32) (stable.Storage, error)
	// TraceCapacity, when positive, attaches a protocol trace ring holding
	// that many events (sends, deliveries, stores, crashes) for post-mortem
	// dumps.
	TraceCapacity int
}

// Cluster is a running emulation.
type Cluster struct {
	cfg   Config
	net   *netsim.Net
	nodes []*core.Node
	disks []stable.Storage
	clk   *clock.Clock
	rec   *history.Recorder
	logs  *causal.Meter
	msgs  *metrics.OpMeter
	tr    *trace.Ring
	ids   atomic.Uint64

	writeLat metrics.Histogram
	readLat  metrics.Histogram

	// vproc allocates history process ids for asynchronous submissions,
	// starting past the real process ids.
	vproc atomic.Int32
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 process, got %d", cfg.N)
	}
	nw, err := netsim.New(cfg.N, cfg.Net)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:  cfg,
		net:  nw,
		clk:  &clock.Clock{},
		logs: causal.NewMeter(),
		msgs: metrics.NewOpMeter(),
	}
	c.rec = history.NewRecorder(c.clk)
	c.vproc.Store(int32(cfg.N))
	if cfg.TraceCapacity > 0 {
		c.tr = trace.NewRing(cfg.TraceCapacity)
	}
	for i := 0; i < cfg.N; i++ {
		var disk stable.Storage
		if cfg.Algorithm.Recovers() {
			if cfg.DiskFactory != nil {
				disk, err = cfg.DiskFactory(int32(i))
			} else {
				dir := ""
				if cfg.DiskDir != "" {
					dir = filepath.Join(cfg.DiskDir, fmt.Sprintf("node%d", i))
				}
				disk, err = stable.OpenBackend(cfg.DiskBackend, dir, cfg.Disk)
			}
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: disk %d: %w", i, err)
			}
			c.disks = append(c.disks, disk)
		} else {
			c.disks = append(c.disks, nil)
		}
		nd, err := core.NewNode(int32(i), cfg.N, cfg.Algorithm, cfg.Node, core.Deps{
			Endpoint: nw.Endpoint(int32(i)),
			Storage:  disk,
			IDs:      &c.ids,
			LogMeter: c.logs,
			MsgMeter: c.msgs,
			Trace:    c.tr,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
	}
	return c, nil
}

// Report summarizes one completed operation.
type Report struct {
	// Op is the operation id, usable with LogCost and MsgTrace.
	Op uint64
	// Latency is the wall-clock duration of the operation.
	Latency time.Duration
	// Tag is the operation's tag witness: the tag the protocol adopted for
	// the written or returned value (zero on failure, for the initial value
	// ⊥, and for coalesced writes superseded within their batch).
	Tag tag.Tag
	// Epoch is the incarnation epoch of the node the operation completed at
	// (docs/adr/0006); zero on failure. Every successful operation carries
	// one, including superseded coalesced writes.
	Epoch uint64
}

// Write invokes the write operation at process proc. The written value is
// recorded in the history as a string.
func (c *Cluster) Write(ctx context.Context, proc int32, reg string, val []byte) (Report, error) {
	return c.Handle(proc, reg).Write(ctx, val)
}

// Read invokes the read operation at process proc. A nil result is the
// register's initial value ⊥.
func (c *Cluster) Read(ctx context.Context, proc int32, reg string) ([]byte, Report, error) {
	return c.Handle(proc, reg).Read(ctx, core.ReadDefault)
}

// SubmitWrite asynchronously writes through process proc's batching engine
// (core.Node.SubmitWrite): concurrent submissions to one register coalesce
// into one quorum round, submissions to different registers pipeline.
//
// In the recorded history the operation is attributed to a fresh one-shot
// logical client co-located with the node (process ids from N upwards): the
// paper's processes are sequential, so a node multiplexing many concurrent
// operations models a population of independent clients, each invoking once.
// The atomicity checkers are interval-based, so this is sound — with one
// deliberate relaxation: an operation left pending by a crash has no
// "next invocation of the same process" to bound its completion, so it may
// linearize at any later point, exactly like a client that never returned.
// The regular and safe modes of Check attribute no write to a writer — the
// node refuses a non-writer's write — so RegularSW histories built with the
// async API verify directly.
func (c *Cluster) SubmitWrite(proc int32, reg string, val []byte) (*core.Future, error) {
	vp := c.vproc.Add(1) - 1
	return c.nodes[proc].SubmitWrite(reg, val, c.writeObs(vp, reg, val))
}

// SubmitRead asynchronously reads through process proc's batching engine;
// concurrent submitted reads of one register share a single quorum round.
// History attribution follows SubmitWrite.
func (c *Cluster) SubmitRead(proc int32, reg string) (*core.Future, error) {
	vp := c.vproc.Add(1) - 1
	return c.nodes[proc].SubmitRead(reg, c.readObs(vp, reg))
}

// Crash fails process proc: its volatile state is lost, in-flight operations
// are interrupted and stay pending in the history, and the network drops its
// messages. Returns false if it was already down.
func (c *Cluster) Crash(proc int32) bool {
	ok := c.nodes[proc].Crash(func() { c.rec.Crash(proc) })
	if ok {
		c.net.SetDown(proc, true)
	}
	return ok
}

// Recover restarts a crashed process: stable state is reloaded and the
// algorithm's recovery procedure runs (blocking until a majority is
// reachable for the persistent algorithm's write-back).
func (c *Cluster) Recover(ctx context.Context, proc int32) error {
	c.net.SetDown(proc, false)
	err := c.nodes[proc].Recover(ctx,
		func() { c.rec.Recover(proc) },
		func() { c.rec.Crash(proc) })
	if err != nil && !errors.Is(err, core.ErrNotDown) && !errors.Is(err, core.ErrClosed) {
		// Recovery failed (crashed again or cancelled); the process stays
		// down from the network's point of view unless it is recovering.
		if !c.nodes[proc].Up() {
			c.net.SetDown(proc, true)
		}
	}
	return err
}

// LastRecovery returns the stable-storage footprint of a process's most
// recent recovery procedure — with the lazy register map this is the
// complete register state a restart read (docs/adr/0009), which scenario
// tests assert stays O(pending) regardless of namespace size.
func (c *Cluster) LastRecovery(proc int32) core.RecoveryStats {
	return c.nodes[proc].LastRecovery()
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.cfg.N }

// Algorithm returns the algorithm the cluster runs.
func (c *Cluster) Algorithm() core.AlgorithmKind { return c.cfg.Algorithm }

// Node exposes a process for state inspection in tests and demos.
func (c *Cluster) Node(proc int32) *core.Node { return c.nodes[proc] }

// Net exposes the simulated network for fault scripting.
func (c *Cluster) Net() *netsim.Net { return c.net }

// Disk exposes a process's stable storage.
func (c *Cluster) Disk(proc int32) stable.Storage { return c.disks[proc] }

// History returns a snapshot of the recorded history.
func (c *Cluster) History() history.History { return c.rec.History() }

// LogCost returns the causal-log accounting of an operation.
func (c *Cluster) LogCost(op uint64) causal.OpCost { return c.logs.Cost(op) }

// LogMeter returns the cluster-wide causal-log meter.
func (c *Cluster) LogMeter() *causal.Meter { return c.logs }

// MsgTrace returns the message accounting of an operation.
func (c *Cluster) MsgTrace(op uint64) metrics.OpTrace { return c.msgs.Trace(op) }

// WriteStats and ReadStats summarize operation latencies.
func (c *Cluster) WriteStats() metrics.Stats { return c.writeLat.Snapshot() }

// ReadStats summarizes read latencies.
func (c *Cluster) ReadStats() metrics.Stats { return c.readLat.Snapshot() }

// NetStats returns network-level message accounting.
func (c *Cluster) NetStats() transport.Stats { return c.net.Stats() }

// DumpTrace writes the protocol trace (if enabled) to w and reports whether
// tracing was on.
func (c *Cluster) DumpTrace(w io.Writer) bool {
	if c.tr == nil {
		return false
	}
	c.tr.Dump(w)
	return true
}

// Check verifies the recorded history against the given criterion.
func (c *Cluster) Check(mode atomicity.Mode) error {
	return atomicity.Check(c.History(), mode)
}

// Close shuts down all nodes, the network, and the disks.
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Close()
		}
	}
	if c.net != nil {
		c.net.Close()
	}
	for _, d := range c.disks {
		if d != nil {
			_ = d.Close()
		}
	}
}
