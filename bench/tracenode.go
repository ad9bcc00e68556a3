package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"recmem/internal/core"
	"recmem/internal/nettcp"
	"recmem/internal/stable"
	"recmem/internal/transport"
	"recmem/internal/wire"
	"recmem/remote"
)

// The traced node is cmd/recmem-node's startNode with two substitutions in
// core.Deps: the endpoint and the storage are wrapped so that every call
// across those two seams leaves an event. Nothing inside the program is
// edited; what the wrappers cannot see (engine queues, the outbox gather,
// the reply path) shows up as the time between events. When ROADMAP 4d's
// single booter lands, this wiring folds into it.

// procStart is taken during package initialisation: as early as this process
// can say "the new incarnation is running".
var procStart = time.Now()

// Event kinds.
const (
	evSendCall  uint8 = iota + 1 // one Send/SendBatch call: a frame, unless To is the node itself
	evSend                       // one envelope of such a call
	evRecv                       // one envelope handed up from the endpoint
	evStoreCall                  // one Store/StoreBatch call
	evStore                      // one record of such a call
	evRetrieve                   // one Retrieve call
)

// Record classes, by stable record name.
const (
	recOther   uint8 = iota
	recWriting       // writing/<reg>: the writer's pre-log (Fig. 4 line 12)
	recWritten       // written/<reg>: a replica's adoption log (Fig. 4 line 24)
)

// event is one fixed-size trace record. Times are wall-clock Unix
// nanoseconds, comparable across the processes of one host. A round is keyed
// by the node that started it and its RPC id; the envelopes and records of
// one call carry the call's start and end.
type event struct {
	Kind  uint8
	Class uint8 // wire.Kind for envelopes, record class for records
	Node  int8
	From  int8
	To    int8
	Reg   uint32 // index into the file's name table; 0 is "none"
	Count uint32 // envelopes or records in the call
	Bytes uint32
	RPC   uint64
	Op    uint64
	Start int64
	End   int64
}

const eventChunk = 1 << 16

// recorder keeps events in memory, in chunks allocated as the run needs
// them, until the node is told to stop.
type recorder struct {
	node int8

	mu     sync.Mutex
	chunks [][]event
	names  map[string]uint32
	list   []string
	// sample keeps the envelopes of the first calls for the codec replay.
	sample [][]wire.Envelope
}

const codecSampleCalls = 4096

func newRecorder(node int) *recorder {
	return &recorder{node: int8(node), names: map[string]uint32{"": 0}, list: []string{""},
		chunks: [][]event{make([]event, 0, eventChunk)}}
}

// intern returns the name-table index of reg; the caller holds mu.
func (r *recorder) intern(reg string) uint32 {
	id, ok := r.names[reg]
	if !ok {
		id = uint32(len(r.list))
		reg = strings.Clone(reg)
		r.names[reg] = id
		r.list = append(r.list, reg)
	}
	return id
}

// add appends an event; the caller holds mu.
func (r *recorder) add(e event) {
	last := len(r.chunks) - 1
	if len(r.chunks[last]) == eventChunk {
		r.chunks = append(r.chunks, make([]event, 0, eventChunk))
		last++
	}
	e.Node = r.node
	r.chunks[last] = append(r.chunks[last], e)
}

func (r *recorder) envelopes(kind uint8, envs []wire.Envelope, start, end int64, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if kind == evSend {
		r.add(event{Kind: evSendCall, From: r.node, To: int8(envs[0].To), Count: uint32(len(envs)),
			Bytes: uint32(bytes), Start: start, End: end})
		if len(r.sample) < codecSampleCalls && envs[0].To != int32(r.node) {
			r.sample = append(r.sample, append([]wire.Envelope(nil), envs...))
		}
	}
	for _, env := range envs {
		from := int8(env.From)
		if kind == evSend {
			from = r.node // the endpoint stamps From; the caller need not have
		}
		r.add(event{Kind: kind, Class: uint8(env.Kind), From: from, To: int8(env.To),
			Reg: r.intern(env.Reg), Bytes: uint32(wire.Size(env)),
			RPC: env.RPC, Op: env.Op, Start: start, End: end})
	}
}

func classify(record string) (uint8, string) {
	if reg, ok := strings.CutPrefix(record, "writing/"); ok {
		return recWriting, reg
	}
	if reg, ok := strings.CutPrefix(record, "written/"); ok {
		return recWritten, reg
	}
	return recOther, ""
}

func (r *recorder) stores(recs []stable.Record, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	bytes := 0
	for _, rec := range recs {
		bytes += len(rec.Data)
	}
	class, _ := classify(recs[0].Name)
	r.add(event{Kind: evStoreCall, Class: class, Count: uint32(len(recs)), Bytes: uint32(bytes), Start: start, End: end})
	for _, rec := range recs {
		class, reg := classify(rec.Name)
		r.add(event{Kind: evStore, Class: class, Reg: r.intern(reg), Bytes: uint32(len(rec.Data)), Start: start, End: end})
	}
}

func (r *recorder) retrieve(record string, start, end int64) {
	class, reg := classify(record)
	r.mu.Lock()
	r.add(event{Kind: evRetrieve, Class: class, Reg: r.intern(reg), Start: start, End: end})
	r.mu.Unlock()
}

func now() int64 { return time.Now().UnixNano() }

// timedEndpoint stamps every envelope that crosses the transport seam.
type timedEndpoint struct {
	inner *nettcp.Mesh
	rec   *recorder
	recv  chan wire.Envelope
}

var (
	_ transport.Endpoint    = (*timedEndpoint)(nil)
	_ transport.BatchSender = (*timedEndpoint)(nil)
)

func newTimedEndpoint(inner *nettcp.Mesh, rec *recorder) *timedEndpoint {
	// Same depth as the mesh's own receive queue: the forwarder must never
	// be the reason an envelope is dropped.
	ep := &timedEndpoint{inner: inner, rec: rec, recv: make(chan wire.Envelope, 4096)}
	go func() {
		defer close(ep.recv)
		one := make([]wire.Envelope, 1)
		for env := range inner.Recv() {
			t := now()
			one[0] = env
			rec.envelopes(evRecv, one, t, t, 0)
			ep.recv <- env
		}
	}()
	return ep
}

func (ep *timedEndpoint) ID() int32                  { return ep.inner.ID() }
func (ep *timedEndpoint) Recv() <-chan wire.Envelope { return ep.recv }

func (ep *timedEndpoint) Send(env wire.Envelope) {
	start := now()
	ep.inner.Send(env)
	ep.rec.envelopes(evSend, []wire.Envelope{env}, start, now(), wire.Size(env))
}

func (ep *timedEndpoint) SendBatch(envs []wire.Envelope) {
	if len(envs) == 0 {
		return
	}
	start := now()
	ep.inner.SendBatch(envs)
	ep.rec.envelopes(evSend, envs, start, now(), wire.BatchSize(envs))
}

// timedStorage stamps every call that crosses the storage seam. Scan and
// Delete go straight through, so lazy recovery runs exactly as it does on
// the bare engine.
type timedStorage struct {
	inner stable.Storage
	rec   *recorder
}

var (
	_ stable.Storage = (*timedStorage)(nil)
	_ stable.Scanner = (*timedStorage)(nil)
	_ stable.Deleter = (*timedStorage)(nil)
)

func (s *timedStorage) Store(record string, data []byte) error {
	start := now()
	err := s.inner.Store(record, data)
	s.rec.stores([]stable.Record{{Name: record, Data: data}}, start, now())
	return err
}

func (s *timedStorage) StoreBatch(recs []stable.Record) error {
	if len(recs) == 0 {
		return nil
	}
	start := now()
	err := s.inner.StoreBatch(recs)
	s.rec.stores(recs, start, now())
	return err
}

func (s *timedStorage) Retrieve(record string) ([]byte, bool, error) {
	start := now()
	data, ok, err := s.inner.Retrieve(record)
	s.rec.retrieve(record, start, now())
	return data, ok, err
}

func (s *timedStorage) Records(prefix string) ([]string, error) { return s.inner.Records(prefix) }
func (s *timedStorage) Close() error                            { return s.inner.Close() }

func (s *timedStorage) Scan(prefix string, fn func(string) error) error {
	return stable.ScanRecords(s.inner, prefix, fn)
}

func (s *timedStorage) Delete(record string) error {
	d, ok := s.inner.(stable.Deleter)
	if !ok {
		return stable.ErrNoDelete
	}
	return d.Delete(record)
}

// logCounters is what both log engines publish about their group commit.
type logCounters interface {
	Syncs() int64
	Batches() int64
	AppendedRecords() int64
	Compactions() int64
}

// counters is one reading of the public counters of a node's layers.
type counters struct {
	T                                    int64
	Syncs, Batches, Appended, Compaction int64
	ReplyBursts, ReplyFrames             uint64
	DeadlineDrops                        uint64
}

// bootRecord is what one incarnation knows about its own start. It is
// written as soon as the control port is open, because an incarnation that
// is SIGKILLed never gets to write anything else.
type bootRecord struct {
	Node          int
	Pid           int
	Epoch         uint64
	ProcStart     int64 // package initialisation of the new process
	OpenNS        int64 // stable.OpenBackend
	RecoverNS     int64 // core.Node.Recover at boot
	PendingWrites int   // core.Node.LastRecovery
	Ready         int64 // control port listening
}

// nodeFile heads a span file; Events fixed-size records follow it. An
// incarnation writes one file when told to flush (SIGUSR2, at the end of the
// timed window, before anything kills it) and one on its way out.
type nodeFile struct {
	Node      int
	Pid       int
	ProcStart int64
	Names     []string
	Snapshots []counters // the readings taken since the previous file: one per SIGUSR1, one at shutdown
	EncodeNS  float64    // per envelope, replaying the sampled calls
	DecodeNS  float64
	CodecEnvs int
	Events    int
}

// nodeRoleConfig mirrors the recmem-node flags the harness passes.
type nodeRoleConfig struct {
	id         int
	peers      []string
	control    string
	dir        string
	disk       string
	staleReads bool
	spans      string // directory for boot records and span files; "" writes none
}

// tracedNode is one running node of the traced shape.
type tracedNode struct {
	cfg  nodeRoleConfig
	rec  *recorder
	mesh *nettcp.Mesh
	disk stable.Storage
	node *core.Node
	srv  *remote.Server

	mu      sync.Mutex
	snaps   []counters
	flushes int
}

// startTracedNode brings a node up in the order startNode does: mesh, store,
// node, boot recovery, control port.
func startTracedNode(cfg nodeRoleConfig) (*tracedNode, error) {
	if cfg.id < 0 || cfg.id >= len(cfg.peers) {
		return nil, fmt.Errorf("-id %d out of range for %d peers", cfg.id, len(cfg.peers))
	}
	tn := &tracedNode{cfg: cfg, rec: newRecorder(cfg.id)}
	var err error
	if tn.mesh, err = nettcp.Listen(int32(cfg.id), cfg.peers[cfg.id], nettcp.Options{}); err != nil {
		return nil, err
	}
	tn.mesh.SetPeers(cfg.peers)
	boot := bootRecord{Node: cfg.id, Pid: os.Getpid(), ProcStart: procStart.UnixNano()}
	t := time.Now()
	if tn.disk, err = stable.OpenBackend(cfg.disk, cfg.dir, stable.Profile{}); err != nil {
		tn.mesh.Close()
		return nil, err
	}
	boot.OpenNS = int64(time.Since(t))
	fail := func(err error) (*tracedNode, error) {
		if tn.node != nil {
			tn.node.Close()
		}
		tn.mesh.Close()
		_ = tn.disk.Close()
		return nil, err
	}
	tn.node, err = core.NewNode(int32(cfg.id), len(cfg.peers), core.Persistent,
		core.Options{RetransmitEvery: 100 * time.Millisecond},
		core.Deps{Endpoint: newTimedEndpoint(tn.mesh, tn.rec),
			Storage: &timedStorage{inner: tn.disk, rec: tn.rec}, IDs: &atomic.Uint64{}})
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	t = time.Now()
	if !tn.node.Crash(nil) {
		return fail(fmt.Errorf("node refused the boot crash transition"))
	}
	if err := tn.node.Recover(ctx, nil, nil); err != nil {
		return fail(fmt.Errorf("startup recovery: %w", err))
	}
	boot.RecoverNS = int64(time.Since(t))
	boot.PendingWrites = tn.node.LastRecovery().PendingWrites
	boot.Epoch = tn.node.IncarnationEpoch()
	ln, err := net.Listen("tcp", cfg.control)
	if err != nil {
		return fail(err)
	}
	tn.srv = remote.Serve(ln, tn.node, remote.ServerOptions{OpTimeout: time.Minute, StaleReads: cfg.staleReads})
	boot.Ready = now()
	if cfg.spans != "" {
		b, _ := json.Marshal(boot)
		name := filepath.Join(cfg.spans, fmt.Sprintf("boot-n%d-%d.json", cfg.id, boot.Pid))
		if err := os.WriteFile(name, b, 0o644); err != nil {
			tn.close()
			return nil, err
		}
	}
	return tn, nil
}

// snapshot reads the layers' public counters.
func (tn *tracedNode) snapshot() {
	c := counters{T: now()}
	if lc, ok := tn.disk.(logCounters); ok {
		c.Syncs, c.Batches, c.Appended, c.Compaction = lc.Syncs(), lc.Batches(), lc.AppendedRecords(), lc.Compactions()
	}
	c.ReplyBursts, c.ReplyFrames = tn.srv.WriterStats()
	_, _, c.DeadlineDrops = tn.srv.DispatchStats()
	tn.mu.Lock()
	tn.snaps = append(tn.snaps, c)
	tn.mu.Unlock()
}

func (tn *tracedNode) close() {
	tn.srv.Close()
	tn.node.Close()
	tn.mesh.Close()
	_ = tn.disk.Close()
}

// spanFile names the seq-th span file of incarnation pid of a node.
func spanFile(dir string, node, pid, seq int) string {
	return filepath.Join(dir, fmt.Sprintf("spans-n%d-%d-%d.bin", node, pid, seq))
}

// flush writes the events and readings gathered since the last flush and
// starts over. Recording blocks meanwhile, so the harness asks for it only
// when no load is running.
func (tn *tracedNode) flush() error {
	if tn.cfg.spans == "" {
		return nil
	}
	tn.mu.Lock()
	snaps, seq := tn.snaps, tn.flushes
	tn.snaps, tn.flushes = nil, seq+1
	tn.mu.Unlock()
	head := nodeFile{Node: tn.cfg.id, Pid: os.Getpid(), ProcStart: procStart.UnixNano(), Snapshots: snaps}
	return tn.rec.writeFile(spanFile(tn.cfg.spans, tn.cfg.id, head.Pid, seq), head)
}

// finish stops the node and writes what is left of its spans.
func (tn *tracedNode) finish() error {
	tn.snapshot()
	tn.close()
	return tn.flush()
}

// replayCodec runs the sampled envelopes through the codec the way nettcp
// frames them and returns the cost per envelope of each direction.
func replayCodec(sample [][]wire.Envelope) (encNS, decNS float64, envs int) {
	if len(sample) == 0 {
		return 0, 0, 0
	}
	frames := make([][]byte, len(sample))
	for _, call := range sample {
		envs += len(call)
	}
	const passes = 5
	best := func(f func()) float64 {
		lo := time.Duration(1<<63 - 1)
		for range passes {
			t := time.Now()
			f()
			lo = min(lo, time.Since(t))
		}
		return float64(lo) / float64(envs)
	}
	var buf []byte
	encNS = best(func() {
		for i, call := range sample {
			if len(call) == 1 {
				buf, _ = wire.AppendEncode(buf[:0], call[0])
			} else {
				buf, _ = wire.AppendEncodeBatch(buf[:0], call)
			}
			if frames[i] == nil {
				frames[i] = append([]byte(nil), buf...)
			}
		}
	})
	decNS = best(func() {
		for _, f := range frames {
			if wire.IsBatch(f) {
				_, _ = wire.DecodeBatch(f)
			} else {
				_, _ = wire.Decode(f)
			}
		}
	})
	return encNS, decNS, envs
}

// writeFile writes the recorder's events under head and empties it.
func (r *recorder) writeFile(name string, head nodeFile) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() {
		r.chunks = [][]event{r.chunks[0][:0]}
		r.names, r.list, r.sample = map[string]uint32{"": 0}, []string{""}, nil
	}()
	head.Names = r.list
	head.EncodeNS, head.DecodeNS, head.CodecEnvs = replayCodec(r.sample)
	for _, c := range r.chunks {
		head.Events += len(c)
	}
	f, err := os.Create(name + ".tmp")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hb, _ := json.Marshal(head)
	w.Write(hb)
	w.WriteByte('\n')
	for _, c := range r.chunks {
		if err := binary.Write(w, binary.LittleEndian, c); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// The harness takes a span file's presence to mean it is complete.
	return os.Rename(name+".tmp", name)
}

// runNodeRole is the -role node entry point: serve until SIGTERM, take a
// counter reading at every SIGUSR1, write the spans at SIGUSR2 and on the way
// out.
func runNodeRole(args []string) error {
	fs := flag.NewFlagSet("node", flag.ContinueOnError)
	var cfg nodeRoleConfig
	fs.IntVar(&cfg.id, "id", 0, "this process's id (index into -peers)")
	peers := fs.String("peers", "", "comma-separated listen addresses of all processes")
	fs.StringVar(&cfg.control, "control", "", "address of the client control port")
	fs.StringVar(&cfg.dir, "dir", "", "stable-storage directory")
	fs.StringVar(&cfg.disk, "disk", "wal", "stable-storage engine: wal or sharded")
	algorithm := fs.String("algorithm", "persistent", "must be persistent")
	fs.BoolVar(&cfg.staleReads, "stale-reads", false, "FAULT INJECTION: serve frozen reads (the audit's negative control)")
	fs.StringVar(&cfg.spans, "spans", "", "directory for boot records and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *algorithm != "persistent" {
		return fmt.Errorf("the traced node runs the persistent algorithm only, not %q", *algorithm)
	}
	cfg.peers = strings.Split(*peers, ",")
	sigs := make(chan os.Signal, 8) // a few readings may arrive while one is being taken
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT, syscall.SIGUSR1, syscall.SIGUSR2)
	tn, err := startTracedNode(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("traced node %d (%s disk, epoch %d) control on %s\n", cfg.id, cfg.disk, tn.node.IncarnationEpoch(), tn.srv.Addr())
	for {
		switch <-sigs {
		case syscall.SIGUSR1:
			tn.snapshot()
		case syscall.SIGUSR2:
			if err := tn.flush(); err != nil {
				fmt.Fprintln(os.Stderr, "bench node: flush:", err)
			}
		default:
			return tn.finish()
		}
	}
}

// readNodeFile loads a span file.
func readNodeFile(name string) (nodeFile, []event, error) {
	f, err := os.Open(name)
	if err != nil {
		return nodeFile{}, nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nodeFile{}, nil, err
	}
	var head nodeFile
	if err := json.Unmarshal(line, &head); err != nil {
		return nodeFile{}, nil, err
	}
	events := make([]event, head.Events)
	if err := binary.Read(r, binary.LittleEndian, events); err != nil {
		return nodeFile{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	return head, events, nil
}
