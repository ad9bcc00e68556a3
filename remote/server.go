package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"recmem/internal/core"
	"recmem/internal/frame"
	"recmem/internal/wire"
)

// ServerOptions tunes a control-port server.
type ServerOptions struct {
	// OpTimeout bounds a single operation's server-side execution when the
	// request carries no deadline of its own (default 1 minute). Without a
	// bound, an operation invoked while a majority is unreachable would pin
	// its response goroutine forever.
	OpTimeout time.Duration
	// StaleReads makes the server DISHONEST: every read of a register is
	// answered with the first reply the server ever produced for it — value
	// and tag witness frozen forever — while the emulation underneath keeps
	// running correctly. It exists to prove the verification pipeline works:
	// a mesh containing one stale node must fail `recmem-torture -remote
	// -verify` (the merged history shows reads returning superseded values).
	// Never enable it outside fault-injection testing.
	StaleReads bool
	// FreezeEpoch makes the server DISHONEST about its incarnation epoch:
	// every reply (write, read and info) reports the epoch the node had when
	// Serve started, forever — as if the node never died — while crashes and
	// recoveries underneath keep happening. It is the negative control for
	// the epoch-based crash inference (docs/adr/0006): a mesh containing one
	// frozen node must fail `recmem-torture -remote -verify` once faults are
	// injected, because the recorder sees a recorded crash whose epoch never
	// advances past the pre-crash floor. Never enable it outside
	// fault-injection testing.
	FreezeEpoch bool
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.OpTimeout <= 0 {
		o.OpTimeout = time.Minute
	}
	return o
}

// Server serves the binary control protocol for one node: the recmem-node
// control port. Every write and read is dispatched through the node's
// batching engine (SubmitWrite/SubmitRead), so the operations of all
// connected clients — and the pipelined operations of a single client —
// coalesce and pipeline exactly like the simulated cluster's asynchronous
// API: concurrent writes to one register share a quorum round and a causal
// log chain, different registers' rounds overlap.
type Server struct {
	node *core.Node
	ln   net.Listener
	opts ServerOptions

	// stale pins the first read reply per register under StaleReads.
	staleMu sync.Mutex
	stale   map[string]response

	// frozenEpoch is the epoch reported forever under FreezeEpoch, captured
	// once at Serve time.
	frozenEpoch uint64

	// wstats is shared by every connection's writer: the socket writes they
	// issued and the response frames those carried. Frames/Bursts is the
	// reply group-commit amortization — the socket-side analogue of the
	// log's records-per-fsync (docs/adr/0007, 0013).
	wstats frame.Stats

	// The dispatch counters observe the callback completion path
	// (docs/adr/0010): inflight is the number of write/read ops dispatched
	// into the engine whose entries have not been recycled yet,
	// cbCompletions the replies delivered by the completion callback,
	// deadlineDrops the server-side waits abandoned by an expired deadline.
	inflight      atomic.Int64
	cbCompletions atomic.Uint64
	deadlineDrops atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// WriterStats reports the reply group-commit counters across all
// connections: bursts is the number of gathered socket writes, frames the
// response frames they carried. frames ≥ bursts always; under pipelined
// load frames/bursts grows with the burst size, under one-at-a-time load it
// stays 1.
func (s *Server) WriterStats() (bursts, frames uint64) {
	return s.wstats.Bursts.Load(), s.wstats.Frames.Load()
}

// DispatchStats reports the callback-completion counters (docs/adr/0010):
// inflight is the number of dispatched write/read operations not yet
// recycled, completions the replies delivered by the engine-side completion
// callback, deadlines the server-side waits an expired deadline abandoned.
// completions + inflight covers every write/read ever dispatched; a steady
// inflight under sustained load is the observable proof that dispatch is
// goroutine-free AND leak-free.
func (s *Server) DispatchStats() (inflight int64, completions, deadlines uint64) {
	return s.inflight.Load(), s.cbCompletions.Load(), s.deadlineDrops.Load()
}

// Serve starts serving the control protocol on ln for node. It returns
// immediately; use Done to wait and Close to stop. The server does not own
// the node: closing the server leaves the node running.
func Serve(ln net.Listener, node *core.Node, opts ServerOptions) *Server {
	s := &Server{
		node:  node,
		ln:    ln,
		opts:  opts.withDefaults(),
		stale: make(map[string]response),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	if s.opts.FreezeEpoch {
		s.frozenEpoch = node.IncarnationEpoch()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Done returns a channel closed when the server has stopped accepting.
func (s *Server) Done() <-chan struct{} { return s.done }

// Close stops the server and closes every client connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// reply encodes r into a connection's writer and kicks its on-demand
// flusher (docs/adr/0020). It runs in the engine's completion callback
// (docs/adr/0010) and must NEVER block on a slow client: Append holds the
// writer's mutex only for the encode, what is queued is bounded by the
// client's own in-flight ops, and a reply to a closed connection is dropped.
func reply(w *frame.Writer, r response) {
	err := w.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendResponse(b, r) })
	if err != nil {
		// Unencodable response (oversized value): answer with an error
		// response instead; this encode cannot fail.
		r = response{Kind: r.Kind, ID: r.ID, Code: codeGeneric, Msg: err.Error()}
		_ = w.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendResponse(b, r) })
	}
	w.Kick()
}

// serveConn runs one connection's read loop, the ONLY goroutine an idle
// connection costs: replies leave on the writer's on-demand flusher. They
// go as operations complete — out of order, correlated by request id — so
// the read loop never blocks on an operation and the connection pipelines;
// write/read dispatch registers a completion callback instead of spawning
// an awaiter (docs/adr/0010).
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	w := frame.NewWriter(conn, &s.wstats)
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		w.Close() // waits out a flusher the closed conn has just failed
	}()

	// The read loop reuses one frame buffer across requests (the decoder
	// copies the value out, the intern table owns each register name once),
	// so a busy connection's steady-state receive path allocates only the
	// value copy that crosses into the engine.
	rb := frame.Get()
	defer frame.Put(rb)
	names := make(map[string]string)
	for {
		body, err := frame.Read(conn, rb, MaxFrame)
		if err != nil {
			return
		}
		req, err := decodeRequestReuse(body, names)
		if err != nil {
			// Answer decodable-but-unsupported requests (bad version, bad
			// kind) with an error response; drop the connection only on
			// frames too broken to carry an id.
			if len(body) >= 10 {
				reply(w, response{Kind: reqKind(body[1] &^ byte(respFlag)), ID: binary.BigEndian.Uint64(body[2:]),
					Code: codeBadRequest, Msg: err.Error()})
				continue
			}
			return
		}
		s.dispatch(req, w)
	}
}

// dispatch executes one request. Writes and reads respond asynchronously
// through a completion callback on the operation's future — no goroutine is
// spawned per op (docs/adr/0010); only the rare blocking recovery keeps its
// own goroutine.
func (s *Server) dispatch(req request, w *frame.Writer) {
	switch req.Kind {
	case reqPing:
		reply(w, response{Kind: reqPing, ID: req.ID})

	case reqInfo:
		reply(w, response{Kind: reqInfo, ID: req.ID,
			NodeID: s.node.ID(), N: int32(s.node.N()), Quorum: int32(s.node.Quorum()),
			Algorithm: uint8(s.node.Algorithm()),
			Epoch:     s.epoch(s.node.IncarnationEpoch())})

	case reqCrash:
		if !s.node.Crash(nil) {
			reply(w, errResponse(req, core.ErrDown))
			return
		}
		reply(w, response{Kind: reqCrash, ID: req.ID})

	case reqRecover:
		go func() {
			ctx, cancel := s.opCtx(req)
			defer cancel()
			start := time.Now()
			if err := s.node.Recover(ctx, nil, nil); err != nil {
				reply(w, errResponse(req, err))
				return
			}
			reply(w, response{Kind: reqRecover, ID: req.ID,
				LatencyUS: uint64(time.Since(start).Microseconds())})
		}()

	case reqWrite:
		// The decoded request value is already an owned copy; hand it to the
		// engine without the defensive re-copy SubmitWrite would make.
		fut, err := s.node.RegisterRef(req.Reg).SubmitWriteOwned(req.Value, core.OpObserver{})
		if err != nil {
			reply(w, errResponse(req, err))
			return
		}
		s.trackOp(w, req, fut)

	case reqRead:
		if req.Consistency > uint8(core.ReadSafe) {
			reply(w, response{Kind: req.Kind, ID: req.ID, Code: codeBadRequest,
				Msg: fmt.Sprintf("unknown read-consistency byte %d", req.Consistency)})
			return
		}
		fut, err := s.node.RegisterRef(req.Reg).SubmitRead(core.ReadMode(req.Consistency), core.OpObserver{})
		if err != nil {
			reply(w, errResponse(req, err))
			return
		}
		s.trackOp(w, req, fut)

	default:
		reply(w, response{Kind: req.Kind, ID: req.ID, Code: codeBadRequest,
			Msg: "unknown request kind"})
	}
}

// opEntry tracks one dispatched write/read from submission to reply: the
// completion callback's argument, the owner of the op's deadline timer, and
// the unit of recycling for both itself and the operation's future. Exactly
// two references exist while an op is in flight — the armed timer's and the
// callback's; claimed decides (exactly once) whether the reply comes from the
// completion or from deadline expiry, and whoever drops the last reference
// releases the future and recycles the entry.
type opEntry struct {
	srv   *Server
	w     *frame.Writer // the connection's reply writer
	fut   *core.Future
	kind  reqKind
	id    uint64
	reg   string // interned by the connection's decode table
	start time.Time

	claimed atomic.Bool
	refs    atomic.Int32

	// timer fires expire at the op's deadline. It is created on the entry's
	// first use and survives recycling, so a pooled entry re-arms it with
	// Reset — a round's retransmission timer is pooled the same way.
	timer *time.Timer
}

// entryPool recycles opEntries across operations.
var entryPool = sync.Pool{New: func() any { return &opEntry{} }}

// trackOp arms the deadline and registers the completion callback for a
// dispatched operation: the reply is built wherever the future completes
// (the engine's dispatch loop) and enqueued on the connection's writer, and
// the deadline is the entry's own runtime timer.
func (s *Server) trackOp(w *frame.Writer, req request, fut *core.Future) {
	d := s.opts.OpTimeout
	if req.DeadlineUS > 0 {
		d = time.Duration(req.DeadlineUS) * time.Microsecond
	}
	e := entryPool.Get().(*opEntry)
	e.srv, e.w, e.fut = s, w, fut
	e.kind, e.id, e.reg = req.Kind, req.ID, req.Reg
	e.start = time.Now()
	s.inflight.Add(1)
	e.refs.Store(2) // before arming: the timer may expire the entry immediately
	if e.timer == nil {
		e.timer = time.AfterFunc(d, e.expire)
	} else {
		e.timer.Reset(d)
	}
	fut.OnDone(opDone, e)
}

// opDone is the completion callback for every dispatched write/read: it runs
// on whatever goroutine completed the operation (the engine's register
// dispatcher), disarms the deadline, builds the response and enqueues it on
// the connection writer — all non-blocking. If the deadline already claimed
// the op, the reply was a timeout and this late completion only recycles.
func opDone(fut *core.Future, arg any) {
	e := arg.(*opEntry)
	s := e.srv
	disarmed := e.timer.Stop()
	if e.claimed.CompareAndSwap(false, true) {
		s.cbCompletions.Add(1)
		val, err := fut.Wait(context.Background()) // done: returns immediately
		if err != nil {
			reply(e.w, errResponseAt(e.kind, e.id, err))
		} else {
			wit, _ := fut.TagWitness()
			inc, _ := fut.Incarnation()
			if e.kind == reqWrite {
				reply(e.w, response{Kind: reqWrite, ID: e.id, Op: fut.Op(),
					LatencyUS: uint64(time.Since(e.start).Microseconds()), Tag: wit,
					Epoch: s.epoch(inc)})
			} else {
				resp := response{Kind: reqRead, ID: e.id, Op: fut.Op(),
					Present: val != nil, Value: val, Tag: wit, Epoch: s.epoch(inc)}
				if s.opts.StaleReads {
					resp = s.staleize(e.reg, resp)
				}
				reply(e.w, resp)
			}
		}
	}
	if disarmed {
		// Completing first consumed the timer's reference too.
		e.dropRef()
	}
	e.dropRef()
}

// expire is the deadline timer's action: reply DeadlineExceeded if the op is
// still unclaimed, then drop the timer's reference. The operation itself
// keeps running — a deadline only abandons the server-side wait — and its
// eventual completion recycles the entry. After Close the reply lands in a
// closed writer and is dropped.
func (e *opEntry) expire() {
	if e.claimed.CompareAndSwap(false, true) {
		e.srv.deadlineDrops.Add(1)
		reply(e.w, errResponseAt(e.kind, e.id, context.DeadlineExceeded))
	}
	e.dropRef()
}

// dropRef releases one of the entry's two references; the last one recycles
// the entry and — as the future's sole owner — the future itself.
func (e *opEntry) dropRef() {
	if e.refs.Add(-1) != 0 {
		return
	}
	e.srv.inflight.Add(-1)
	fut := e.fut
	*e = opEntry{timer: e.timer}
	entryPool.Put(e)
	fut.Release()
}

// epoch resolves the incarnation epoch a reply reports: the honest one, or
// the Serve-time snapshot under FreezeEpoch.
func (s *Server) epoch(honest uint64) uint64 {
	if s.opts.FreezeEpoch {
		return s.frozenEpoch
	}
	return honest
}

// staleize implements ServerOptions.StaleReads: the first read reply ever
// produced for a register is pinned (value, presence and tag witness) and
// served for every later read of it, with only the correlation fields
// (request id, op id) kept fresh.
func (s *Server) staleize(reg string, fresh response) response {
	s.staleMu.Lock()
	defer s.staleMu.Unlock()
	pinned, ok := s.stale[reg]
	if !ok {
		s.stale[reg] = fresh
		return fresh
	}
	pinned.ID = fresh.ID
	pinned.Op = fresh.Op
	return pinned
}

// opCtx builds the operation context from the request deadline or the
// server default; used by the recovery path, whose context really does
// cancel server-side work.
func (s *Server) opCtx(req request) (context.Context, context.CancelFunc) {
	d := s.opts.OpTimeout
	if req.DeadlineUS > 0 {
		d = time.Duration(req.DeadlineUS) * time.Microsecond
	}
	return context.WithTimeout(context.Background(), d)
}

// errResponse maps an operation error to its wire code.
func errResponse(req request, err error) response {
	return errResponseAt(req.Kind, req.ID, err)
}

// errResponseAt is errResponse when only the request's kind and id survive
// (the completion callback's opEntry, not the decoded request).
func errResponseAt(kind reqKind, id uint64, err error) response {
	code := codeGeneric
	switch {
	case errors.Is(err, core.ErrCrashed):
		code = codeCrashed
	case errors.Is(err, core.ErrDown):
		code = codeDown
	case errors.Is(err, core.ErrNotDown):
		code = codeNotDown
	case errors.Is(err, core.ErrCannotRecover):
		code = codeCannotRecover
	case errors.Is(err, core.ErrNotWriter):
		code = codeNotWriter
	case errors.Is(err, wire.ErrValueTooLarge):
		code = codeValueTooLarge
	case errors.Is(err, core.ErrBadConsistency):
		code = codeBadConsistency
	case errors.Is(err, context.DeadlineExceeded):
		code = codeDeadline
	}
	return response{Kind: kind, ID: id, Code: code, Msg: err.Error()}
}
