// Command recmem-node runs one process of the shared-memory emulation over
// real TCP, the deployment shape of the paper's measurements (one process
// per workstation). Processes find each other through a static peer list;
// clients drive operations through a binary control port speaking the
// remote package's length-prefixed RPC protocol (docs/adr/0003): pipelined
// request/response frames correlated by request id, so one connection
// sustains arbitrarily many in-flight operations and the node feeds them
// through its batching engine. Drive it with cmd/recmem-client, or from Go
// with remote.Dial — the returned client is a recmem.Client, interchangeable
// with the in-process simulation.
//
// A three-process register on one machine, each process logging to the log
// engine under its -dir (the default -disk wal; mem is a volatile stand-in
// that needs no -dir):
//
//	recmem-node -id 0 -peers :7100,:7101,:7102 -control :7200 -dir /tmp/n0 &
//	recmem-node -id 1 -peers :7100,:7101,:7102 -control :7201 -dir /tmp/n1 &
//	recmem-node -id 2 -peers :7100,:7101,:7102 -control :7202 -dir /tmp/n2 &
//	recmem-client -node :7200 write x hello
//	recmem-client -node :7201 read x
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"recmem/internal/core"
	"recmem/internal/nettcp"
	"recmem/internal/stable"
	"recmem/remote"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recmem-node:", err)
		os.Exit(1)
	}
}

// nodeConfig is the parsed command line.
type nodeConfig struct {
	id             int
	peers          []string
	control        string
	dir            string
	algorithm      string
	disk           string
	hardened       bool
	retransmit     time.Duration
	opTimeout      time.Duration
	recoverTimeout time.Duration
	staleReads     bool
	freezeEpoch    bool
}

// nodeServer is one running node plus its control server.
type nodeServer struct {
	mesh *nettcp.Mesh
	node *core.Node
	disk stable.Storage
	srv  *remote.Server

	// bootRecovery is how long the startup recovery procedure took; zero
	// when the node started on a volatile (mem) backend.
	bootRecovery time.Duration
}

// ControlAddr returns the control port's actual address.
func (ns *nodeServer) ControlAddr() string { return ns.srv.Addr() }

// Done returns a channel closed when the control server stops.
func (ns *nodeServer) Done() <-chan struct{} { return ns.srv.Done() }

// Close shuts everything down.
func (ns *nodeServer) Close() {
	ns.srv.Close()
	ns.node.Close()
	ns.mesh.Close()
	if ns.disk != nil {
		_ = ns.disk.Close()
	}
}

// startNode validates the configuration and brings the node up; it returns
// as soon as the mesh and the control port are listening.
func startNode(cfg nodeConfig) (*nodeServer, error) {
	if len(cfg.peers) < 1 || cfg.peers[0] == "" && len(cfg.peers) == 1 {
		return nil, fmt.Errorf("need -peers")
	}
	if cfg.id < 0 || cfg.id >= len(cfg.peers) {
		return nil, fmt.Errorf("-id %d out of range for %d peers", cfg.id, len(cfg.peers))
	}
	if cfg.control == "" {
		return nil, fmt.Errorf("need -control")
	}
	kind, err := core.ParseAlgorithm(cfg.algorithm)
	if err != nil {
		return nil, err
	}
	if !stable.ValidBackend(cfg.disk) {
		return nil, fmt.Errorf("-disk: unknown engine %q (want one of %s)", cfg.disk, strings.Join(stable.Backends(), ", "))
	}
	if cfg.retransmit <= 0 {
		cfg.retransmit = 100 * time.Millisecond
	}

	mesh, err := nettcp.Listen(int32(cfg.id), cfg.peers[cfg.id], nettcp.Options{})
	if err != nil {
		return nil, err
	}
	mesh.SetPeers(cfg.peers)

	// mem is the volatile stand-in for tests and demos: it survives
	// Crash/Recover but not a process restart, and needs no -dir.
	var disk stable.Storage
	if kind.Recovers() {
		disk, err = stable.OpenBackend(cfg.disk, cfg.dir, stable.Profile{})
		if err != nil {
			mesh.Close()
			return nil, fmt.Errorf("-disk %s -dir %q: %w", cfg.disk, cfg.dir, err)
		}
	}
	_, volatile := disk.(*stable.MemDisk)

	// OneRoundReads is not a flag: the deployed-shape benchmark decided it
	// (docs/adr/0015), and a read that observes disagreement still runs the
	// paper's two rounds on its own.
	node, err := core.NewNode(int32(cfg.id), len(cfg.peers), kind,
		core.Options{RetransmitEvery: cfg.retransmit, HardenedTags: cfg.hardened, OneRoundReads: true},
		core.Deps{Endpoint: mesh, Storage: disk, IDs: &atomic.Uint64{}},
	)
	if err != nil {
		mesh.Close()
		if disk != nil {
			_ = disk.Close()
		}
		return nil, err
	}

	// Restart safety: a process that starts on a persistent backend treats
	// its startup as the paper's crash+recover — rebuild the volatile state
	// from the persisted logs and run the algorithm's recovery procedure
	// (finish the pending write / bump the recovery counter) BEFORE the
	// control port opens, so a SIGKILL + re-exec is a faithful paper-model
	// crash and no client operation can observe a half-recovered node. A
	// cold start with an empty directory recovers trivially; a restart with
	// a pending write blocks here until a majority of peers is reachable,
	// exactly as Recover would.
	var bootRecovery time.Duration
	if kind.Recovers() && !volatile {
		start := time.Now()
		if err := bootRecover(node, cfg.recoverTimeout); err != nil {
			node.Close()
			mesh.Close()
			if disk != nil {
				_ = disk.Close()
			}
			return nil, fmt.Errorf("startup recovery: %w", err)
		}
		bootRecovery = time.Since(start)
	}

	ln, err := net.Listen("tcp", cfg.control)
	if err != nil {
		node.Close()
		mesh.Close()
		if disk != nil {
			_ = disk.Close()
		}
		return nil, err
	}
	srv := remote.Serve(ln, node, remote.ServerOptions{
		OpTimeout: cfg.opTimeout, StaleReads: cfg.staleReads, FreezeEpoch: cfg.freezeEpoch})
	return &nodeServer{mesh: mesh, node: node, disk: disk, srv: srv, bootRecovery: bootRecovery}, nil
}

// bootRecover runs the crash+recover transition of a freshly exec'd process:
// the node is flipped to the crashed state (its volatile state is empty — the
// real loss happened when the previous incarnation died) and recovered from
// stable storage. timeout 0 means wait indefinitely for a reachable majority.
func bootRecover(node *core.Node, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if !node.Crash(nil) {
		return fmt.Errorf("node refused the boot crash transition")
	}
	return node.Recover(ctx, nil, nil)
}

// parseFlags turns the command line into a nodeConfig.
func parseFlags(args []string) (nodeConfig, error) {
	fs := flag.NewFlagSet("recmem-node", flag.ContinueOnError)
	var (
		id          = fs.Int("id", 0, "this process's id (index into -peers)")
		peersFlag   = fs.String("peers", "", "comma-separated listen addresses of all processes")
		control     = fs.String("control", "", "address of the client control port")
		dir         = fs.String("dir", "", "stable-storage directory (required for crash-recovery algorithms with a real -disk)")
		algorithm   = fs.String("algorithm", "persistent", "crash-stop, transient, persistent, naive, or regular-sw")
		disk        = fs.String("disk", "wal", "stable-storage engine: "+strings.Join(stable.Backends(), ", "))
		hardened    = fs.Bool("hardened", false, "hardened tags for the transient algorithm")
		retransmit  = fs.Duration("retransmit", 100*time.Millisecond, "protocol retransmission period")
		opTimeout   = fs.Duration("op-timeout", time.Minute, "server-side bound on one operation")
		recTimeout  = fs.Duration("recover-timeout", 2*time.Minute, "bound on the startup recovery procedure with a persistent -disk (0 = wait for a majority forever)")
		staleReads  = fs.Bool("stale-reads", false, "FAULT INJECTION: serve every read from the first reply ever produced for its register (frozen value + stale tag witness) — a deliberately dishonest node for exercising recmem-torture -verify")
		freezeEpoch = fs.Bool("freeze-epoch", false, "FAULT INJECTION: report the startup incarnation epoch in every reply forever, hiding later crashes from the epoch-based crash inference — a deliberately dishonest node for exercising recmem-torture -verify")
	)
	if err := fs.Parse(args); err != nil {
		return nodeConfig{}, err
	}
	return nodeConfig{
		id: *id, peers: strings.Split(*peersFlag, ","), control: *control,
		dir: *dir, algorithm: *algorithm, disk: *disk, hardened: *hardened,
		retransmit: *retransmit, opTimeout: *opTimeout, recoverTimeout: *recTimeout,
		staleReads: *staleReads, freezeEpoch: *freezeEpoch,
	}, nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ns, err := startNode(cfg)
	if err != nil {
		return err
	}
	defer ns.Close()
	dishonest := ""
	if cfg.staleReads {
		dishonest = " [DISHONEST: -stale-reads]"
	}
	if cfg.freezeEpoch {
		dishonest += " [DISHONEST: -freeze-epoch]"
	}
	recovered := ""
	if ns.bootRecovery > 0 {
		// The record counts prove the restart was lazy: pending writing/
		// records finished plus the recovery-counter bump are ALL the
		// register state this boot read — the rest of the namespace
		// materializes on first touch (docs/adr/0009).
		stats := ns.node.LastRecovery()
		recovered = fmt.Sprintf(", recovered from stable storage in %v (pending writes finished=%d, rec=%d, register map lazy)",
			ns.bootRecovery.Round(time.Microsecond), stats.PendingWrites, ns.node.RecoveryCount())
	}
	fmt.Printf("recmem-node %d (%v, %s disk, epoch %d) serving protocol on %s, control on %s%s%s\n",
		cfg.id, ns.node.Algorithm(), cfg.disk, ns.node.IncarnationEpoch(), ns.mesh.Addr(), ns.ControlAddr(), dishonest, recovered)

	// A signal is the deployment's shutdown path: drain through Close and
	// leave the dispatch accounting on stdout, so an operator (or the smoke
	// harness) can see whether the node died with work in flight.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("recmem-node %d: %v, shutting down\n", cfg.id, sig)
	case <-ns.Done():
	}
	fmt.Println(shutdownBanner(cfg.id, ns.srv) + readRoundsBanner(ns.node) + adoptionsBanner(ns.node))
	return nil
}

// shutdownBanner summarizes the control server's dispatch accounting for the
// shutdown line: the in-flight gauge (non-zero means operations were
// abandoned mid-protocol), the callback-completion and deadline-drop
// counters (docs/adr/0010), and the reply group-commit ratio.
func shutdownBanner(id int, srv *remote.Server) string {
	inflight, completions, deadlines := srv.DispatchStats()
	bursts, frames := srv.WriterStats()
	ratio := 0.0
	if bursts > 0 {
		ratio = float64(frames) / float64(bursts)
	}
	return fmt.Sprintf("recmem-node %d: dispatch in-flight=%d callback-completions=%d deadline-drops=%d reply-frames=%d reply-bursts=%d (%.1f frames/burst)",
		id, inflight, completions, deadlines, frames, bursts, ratio)
}

// readRoundsBanner is the shutdown line's tail: how many read executions this
// node ran that returned after one round and how many ran the write-back
// (docs/adr/0015) — the one-round hit rate under whatever load the node saw.
func readRoundsBanner(node *core.Node) string {
	one, two := node.ReadRounds()
	return fmt.Sprintf(" one-round-reads=%d two-round-reads=%d", one, two)
}

// adoptionsBanner follows readRoundsBanner: how many StoreBatch calls this
// node's logger made and how many records they carried — every store of the
// node, replica adoptions, its own pre-logs and its recoveries' records
// together (docs/adr/0017, 0019); records per group is the node's
// group-commit ratio.
func adoptionsBanner(node *core.Node) string {
	groups, records := node.Adoptions()
	ratio := 0.0
	if groups > 0 {
		ratio = float64(records) / float64(groups)
	}
	return fmt.Sprintf(" log-groups=%d log-records=%d (%.1f records/group)", groups, records, ratio)
}
