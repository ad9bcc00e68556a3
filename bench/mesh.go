package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"recmem/internal/core"
	"recmem/internal/procfault"
	"recmem/internal/stable"
	"recmem/internal/tag"
	"recmem/remote"
)

const (
	numNodes   = 3
	numClients = 2
	victim     = 1 // the node kill cycles SIGKILL; client 1 is connected to it

	redialEvery = 2 * time.Millisecond // client 1's constant redial period
)

// cleanups run, last registered first, on every way out of the process:
// normal return, audit failure, watchdog, SIGINT/SIGTERM.
var (
	cleanupMu sync.Mutex
	cleanups  []func()
	exiting   bool
)

// onExit registers a cleanup. Once the process is on its way out it runs f
// at once and parks the caller: whoever was still setting something up must
// not go on to start processes nobody will stop.
func onExit(f func()) {
	cleanupMu.Lock()
	if exiting {
		cleanupMu.Unlock()
		f()
		select {}
	}
	cleanups = append(cleanups, f)
	cleanupMu.Unlock()
}

func exit(code int) {
	cleanupMu.Lock()
	exiting = true
	fs := cleanups
	cleanups = nil
	cleanupMu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
	os.Exit(code)
}

// meshConfig is what distinguishes one boot of the three nodes from another.
type meshConfig struct {
	root    string // checkout the node binary is built from
	disk    string
	planted int
	traced  bool // nodes are this binary in -role node, writing spans to outDir
	outDir  string
	stale   int // node started -stale-reads, or -1
}

// mesh is three node processes on real directories plus the two load
// clients' connections.
type mesh struct {
	cfg      meshConfig
	dir      string
	dirs     [numNodes]string
	peers    []string
	controls []string
	procs    [numNodes]*procfault.Proc
	logs     [numNodes]*os.File
	clients  [numClients]*remote.Client

	// connected receives the time of every StateConnected transition of
	// client 1, the one whose node dies.
	connMu    sync.Mutex
	connected []time.Time

	// cpuDead is the CPU time of victim incarnations already killed, which
	// /proc no longer shows.
	cpuDead  time.Duration
	rssPeak  float64
	stopOnce sync.Once
	stopped  atomic.Bool
}

// buildNode builds cmd/recmem-node from the tree under test. It is part of
// set-up: the program under measurement is whatever this tree compiles to.
func buildNode(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "recmem-node")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/recmem-node")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build recmem-node: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddrs picks n loopback addresses the kernel reports free right now.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// plant writes the workload's planted registers into a store before any node
// boots over it: written/ records only, exactly what a replica that had
// adopted those values would have logged.
func plant(disk, dir string, n int, owners int) error {
	st, err := stable.OpenBackend(disk, dir, stable.Profile{})
	if err != nil {
		return err
	}
	const chunk = 2000
	recs := make([]stable.Record, 0, chunk)
	for i := 0; i < n; i++ {
		reg := uint32(i)
		owner := reg % uint32(owners)
		recs = append(recs, stable.Record{
			Name: core.WrittenRecordName(regName(reg)),
			Data: core.EncodeWrittenPayload(tag.Tag{Seq: 1, Writer: int32(owner)}, encodeValue(owner, reg, 0)),
		})
		if len(recs) == chunk || i == n-1 {
			if err := st.StoreBatch(recs); err != nil {
				st.Close()
				return err
			}
			recs = recs[:0]
		}
	}
	return st.Close()
}

// bootMesh plants, starts the three processes, waits until every control
// port answers and dials the two load clients.
func bootMesh(cfg meshConfig) (*mesh, error) {
	bin, err := buildNode(cfg.root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.root, ".bench_build")
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	m := &mesh{cfg: cfg, dir: dir}
	onExit(m.stop)
	addrs, err := freeAddrs(2 * numNodes)
	if err != nil {
		return nil, err
	}
	m.peers, m.controls = addrs[:numNodes], addrs[numNodes:]

	var wg sync.WaitGroup
	plantErrs := make([]error, numNodes)
	for i := range m.dirs {
		m.dirs[i] = filepath.Join(dir, "n"+strconv.Itoa(i))
		if cfg.planted > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				plantErrs[i] = plant(cfg.disk, m.dirs[i], cfg.planted, numClients)
			}()
		}
	}
	wg.Wait()
	for _, err := range plantErrs {
		if err != nil {
			return nil, fmt.Errorf("plant: %w", err)
		}
	}

	for i := range m.procs {
		if m.stopped.Load() {
			return nil, fmt.Errorf("interrupted")
		}
		argv := []string{bin}
		if cfg.traced {
			self, err := os.Executable()
			if err != nil {
				return nil, err
			}
			argv = []string{self, "-role", "node", "-spans", cfg.outDir}
		}
		argv = append(argv, "-id", strconv.Itoa(i), "-peers", strings.Join(m.peers, ","),
			"-control", m.controls[i], "-dir", m.dirs[i], "-disk", cfg.disk, "-algorithm", "persistent")
		if cfg.stale == i {
			argv = append(argv, "-stale-reads")
		}
		if m.logs[i], err = os.Create(filepath.Join(dir, "n"+strconv.Itoa(i)+".log")); err != nil {
			return nil, err
		}
		if m.procs[i], err = procfault.Start(argv, m.logs[i], m.logs[i]); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, p := range m.procs {
		if err := p.WaitReady(ctx, m.pingProbe(i), 5*time.Millisecond); err != nil {
			return nil, fmt.Errorf("node %d: %w\n%s", i, err, m.nodeLog(i))
		}
	}
	for c := range m.clients {
		opts := remote.Options{}
		if c == victim {
			// A constant short redial keeps reconnection a small, steady
			// part of the outage instead of a doubling backoff's lottery.
			// At 10 ms the poll quantised a 55 ms outage into steps of 50
			// and 60 ms, a fifth of noise by itself.
			opts.RedialMin, opts.RedialMax = redialEvery, redialEvery
			opts.OnStateChange = func(s remote.ConnState, _ error) {
				if s == remote.StateConnected {
					m.connMu.Lock()
					m.connected = append(m.connected, time.Now())
					m.connMu.Unlock()
				}
			}
		}
		if m.clients[c], err = remote.Dial(m.controls[c], opts); err != nil {
			return nil, fmt.Errorf("dial node %d: %w", c, err)
		}
	}
	return m, nil
}

// pingProbe answers whether node i's control port completes a handshake and
// a ping on a fresh connection.
func (m *mesh) pingProbe(i int) func(context.Context) error {
	return func(ctx context.Context) error {
		c, err := remote.Dial(m.controls[i], remote.Options{DialTimeout: time.Second, RedialAttempts: -1})
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Ping(ctx)
	}
}

func (m *mesh) nodeLog(i int) string {
	if m.logs[i] == nil {
		return ""
	}
	b, _ := os.ReadFile(m.logs[i].Name())
	return string(b)
}

// stop ends the node processes and removes the run directory.
func (m *mesh) stop() {
	m.stopped.Store(true)
	m.stopOnce.Do(func() {
		for _, c := range m.clients {
			if c != nil {
				c.Close()
			}
		}
		for _, p := range m.procs {
			if p != nil {
				p.Stop()
			}
		}
		for _, f := range m.logs {
			if f != nil {
				f.Close()
			}
		}
		os.RemoveAll(m.dir)
	})
}

// signalNodes sends sig to every live node.
func (m *mesh) signalNodes(sig syscall.Signal) {
	for _, p := range m.procs {
		if pid := p.Pid(); pid != 0 {
			_ = syscall.Kill(pid, sig)
		}
	}
}

// flushSpans has every traced node write the spans it holds and waits for
// the files: whatever kills a node afterwards no longer takes the timed
// window's events with it.
func (m *mesh) flushSpans() error {
	var want []string
	for i, p := range m.procs {
		if pid := p.Pid(); pid != 0 {
			want = append(want, spanFile(m.cfg.outDir, i, pid, 0))
			_ = syscall.Kill(pid, syscall.SIGUSR2)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, name := range want {
		for {
			if _, err := os.Stat(name); err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("traced node never wrote %s", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat; Linux has
// fixed USER_HZ at 100 on every architecture Go runs on.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

// procPeakRSS returns a process's resident-set high-water mark in MiB.
func procPeakRSS(pid int) float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// nodesCPU is the CPU time of all three nodes so far, dead victim
// incarnations included; it also folds the nodes' peak RSS into rssPeak.
func (m *mesh) nodesCPU() time.Duration {
	total := m.cpuDead
	for _, p := range m.procs {
		if pid := p.Pid(); pid != 0 {
			total += procCPU(pid)
			m.rssPeak = max(m.rssPeak, procPeakRSS(pid))
		}
	}
	return total
}

// dirBytes is the size of everything under the nodes' store directories.
func (m *mesh) dirBytes() int64 {
	var total int64
	for _, d := range m.dirs {
		_ = filepath.WalkDir(d, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					total += info.Size()
				}
			}
			return nil
		})
	}
	return total
}

// cycle is one kill/re-exec of the victim as the harness saw it.
type cycle struct {
	killed    time.Time // SIGKILL delivered and the process reaped
	pingable  time.Time // a fresh connection completed handshake + ping (traced runs)
	connected time.Time // client 1's redialer reported StateConnected
	served    time.Time // first operation acknowledged through the victim
	epoch     uint64    // the victim's incarnation epoch afterwards
}

// killCycle SIGKILLs the victim, re-execs it at once and returns when probe,
// an operation through client 1, is acknowledged by the new incarnation.
func (m *mesh) killCycle(probe func(context.Context) (uint64, error), prevEpoch uint64) (cycle, error) {
	p := m.procs[victim]
	pid := p.Pid()
	// The dying incarnation's CPU and RSS vanish with it: take them now.
	cpu, rss := procCPU(pid), procPeakRSS(pid)
	m.connMu.Lock()
	seen := len(m.connected)
	m.connMu.Unlock()
	var cy cycle
	if err := p.Kill(); err != nil {
		return cy, err
	}
	cy.killed = time.Now()
	m.cpuDead += cpu
	m.rssPeak = max(m.rssPeak, rss)
	if err := p.Restart(); err != nil {
		return cy, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	pinged := make(chan time.Time, 1)
	if m.cfg.traced {
		go func() {
			if p.WaitReady(ctx, m.pingProbe(victim), time.Millisecond) == nil {
				pinged <- time.Now()
			}
			close(pinged)
		}()
	} else {
		close(pinged)
	}
	for {
		epoch, err := probe(ctx)
		if err == nil && epoch > prevEpoch {
			cy.served, cy.epoch = time.Now(), epoch
			break
		}
		if ctx.Err() != nil || !p.Alive() {
			return cy, fmt.Errorf("victim did not serve again: %v (last probe: %v)\n%s", ctx.Err(), err, m.nodeLog(victim))
		}
		time.Sleep(500 * time.Microsecond)
	}
	cy.pingable = <-pinged
	m.connMu.Lock()
	if len(m.connected) > seen {
		cy.connected = m.connected[seen]
	}
	m.connMu.Unlock()
	return cy, nil
}
