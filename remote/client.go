package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"recmem"
	"recmem/internal/core"
	"recmem/internal/frame"
	"recmem/internal/tag"
)

// Client errors.
var (
	// ErrClosed is returned by operations on a closed client.
	ErrClosed = errors.New("remote: client closed")
	// ErrRedialExhausted marks the terminal error of a client whose
	// redialer gave up: Options.RedialAttempts consecutive reconnection
	// attempts failed (or redialing was disabled). Every subsequent
	// operation returns an error wrapping it.
	ErrRedialExhausted = errors.New("remote: redial attempts exhausted")
)

// Error is a server-reported failure that does not map to one of the
// recmem sentinel errors.
type Error struct {
	// Kind is the request the error answers.
	Kind string
	// Msg is the server's message.
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("remote: %s: %s", e.Kind, e.Msg) }

// ConnState is the connection lifecycle state reported to
// Options.OnStateChange.
type ConnState int

// Connection states.
const (
	// StateConnected: a connection (initial or redialed) passed the
	// version/Info handshake and is carrying operations.
	StateConnected ConnState = iota + 1
	// StateReconnecting: the transport failed; pending operations were
	// resolved with recmem.ErrCrashed (fate unknown) and the background
	// redialer is trying to re-establish the connection. New operations
	// fail fast with recmem.ErrDown until it succeeds.
	StateReconnecting
	// StateTerminal: the client is permanently done — Close was called,
	// the server spoke an incompatible protocol version, or the redialer
	// exhausted its attempts. Every operation returns the sticky error.
	StateTerminal
)

// String returns the state name.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateTerminal:
		return "terminal"
	default:
		return fmt.Sprintf("ConnState(%d)", int(s))
	}
}

// Options tunes a client.
type Options struct {
	// DialTimeout bounds connection establishment, including the
	// version/Info handshake (default 5 s). Redial attempts use the same
	// bound per attempt.
	DialTimeout time.Duration
	// RedialAttempts caps how many consecutive failed reconnection
	// attempts the background redialer makes before the client turns
	// terminal (ErrRedialExhausted). 0 means retry forever — the node is
	// expected back, as in the paper's crash-recovery model. A negative
	// value disables redialing entirely: the first transport failure is
	// terminal, the pre-reconnect behavior.
	RedialAttempts int
	// RedialMin is the backoff before the first redial attempt (default
	// 25 ms); it doubles per failed attempt up to RedialMax (default 2 s).
	RedialMin time.Duration
	RedialMax time.Duration
	// OnStateChange, if non-nil, observes connection lifecycle
	// transitions: StateReconnecting with the transport error that cut the
	// connection, StateConnected with a nil cause when a redial succeeds,
	// StateTerminal with the sticky error. Transitions are queued at the
	// state change and delivered one at a time, in transition order, by a
	// dedicated goroutine — a blocking callback delays later notifications,
	// never operations.
	OnStateChange func(state ConnState, cause error)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RedialMin <= 0 {
		o.RedialMin = 25 * time.Millisecond
	}
	if o.RedialMax <= 0 {
		o.RedialMax = 2 * time.Second
	}
	if o.RedialMax < o.RedialMin {
		o.RedialMax = o.RedialMin
	}
	return o
}

// Client is a recmem.Client backed by one TCP connection to a recmem-node
// control port. Operations are pipelined: every request carries an id and
// the client matches responses as they arrive, so arbitrarily many
// operations may be in flight on the one connection — the node dispatches
// them through its batching engine, giving remote submissions the same
// coalescing and register pipelining as the simulated cluster's
// asynchronous API. Clients are safe for concurrent use.
//
// A client survives the death of its transport: when the connection fails,
// every pending operation resolves with recmem.ErrCrashed — the fate of an
// operation cut off mid-flight is unknown, exactly like an operation
// interrupted by the process's crash — and a background redialer
// re-establishes the connection (re-running the version/Info handshake)
// with capped exponential backoff. While disconnected, new operations fail
// fast with recmem.ErrDown; once the node is back they proceed without the
// caller re-dialing. Only Close, a protocol-version mismatch, and the
// redialer giving up (Options.RedialAttempts) are terminal.
type Client struct {
	addr string
	opts Options

	mu       sync.Mutex
	conn     net.Conn      // nil while disconnected (redialer running)
	cw       *frame.Writer // coalescing writer on conn; replaced per connection
	gen      uint64        // bumped per established connection; stales old readLoops
	pending  map[uint64]*call
	nextID   uint64
	sticky   error // terminal error; set once
	closed   bool
	info     Info // identity from the last successful handshake
	haveInfo bool

	// cbq queues OnStateChange transitions in the order they happened (they
	// are enqueued inside the state transition, under mu); one drainer
	// goroutine at a time delivers them, so callbacks observe transitions
	// sequentially even when the underlying goroutines race.
	cbq        []stateEvent
	cbDraining bool
}

// stateEvent is one queued OnStateChange notification.
type stateEvent struct {
	state ConnState
	cause error
}

// notifyLocked queues a state transition for delivery; the caller holds
// c.mu at the transition point, which is what makes the queue order the
// transition order.
func (c *Client) notifyLocked(state ConnState, cause error) {
	if c.opts.OnStateChange == nil {
		return
	}
	c.cbq = append(c.cbq, stateEvent{state, cause})
	if c.cbDraining {
		return
	}
	c.cbDraining = true
	go c.drainStateQueue()
}

// drainStateQueue delivers queued transitions until the queue empties.
func (c *Client) drainStateQueue() {
	for {
		c.mu.Lock()
		if len(c.cbq) == 0 {
			c.cbDraining = false
			c.mu.Unlock()
			return
		}
		ev := c.cbq[0]
		c.cbq = c.cbq[1:]
		c.mu.Unlock()
		c.opts.OnStateChange(ev.state, ev.cause)
	}
}

var (
	_ recmem.Client       = (*Client)(nil)
	_ recmem.Future       = (*call)(nil)
	_ recmem.TagWitness   = (*call)(nil)
	_ recmem.EpochWitness = (*call)(nil)
)

// Dial connects to a recmem-node control port and runs the version/Info
// handshake, so a successful Dial proves the peer speaks this protocol
// version and reports its node identity (see Info).
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults(), pending: make(map[uint64]*call)}
	conn, cw, info, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.conn, c.cw, c.info, c.haveInfo = conn, cw, info, true
	go c.readLoop(conn, c.gen)
	return c, nil
}

// Addr returns the control-port address the client (re)dials.
func (c *Client) Addr() string { return c.addr }

// connect dials the node and runs the handshake; it owns the returned
// connection and its writer until the caller installs them.
func (c *Client) connect() (net.Conn, *frame.Writer, Info, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, nil, Info{}, fmt.Errorf("remote: dial %s: %w", c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // pipelined request/response traffic
	}
	cw := frame.NewWriter(conn, nil)
	info, err := handshake(conn, cw, c.opts.DialTimeout)
	if err != nil {
		_ = conn.Close()
		return nil, nil, Info{}, err
	}
	return conn, cw, info, nil
}

// handshake runs the version/Info exchange on a fresh connection before it
// carries any operation. Request id 0 is reserved for it — calls number
// from 1 — so the reply can never be confused with an operation's. A
// version mismatch surfaces here (the reply fails to decode with
// ErrBadVersion), making incompatible peers a dial-time error instead of a
// per-operation one.
func handshake(conn net.Conn, cw *frame.Writer, timeout time.Duration) (Info, error) {
	_ = conn.SetDeadline(time.Now().Add(timeout))
	defer func() { _ = conn.SetDeadline(time.Time{}) }()
	err := cw.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendRequest(b, request{Kind: reqInfo}) })
	if err == nil {
		err = cw.Flush()
	}
	if err != nil {
		return Info{}, fmt.Errorf("remote: handshake: %w", err)
	}
	rb := frame.Get()
	defer frame.Put(rb)
	body, err := frame.Read(conn, rb, MaxFrame)
	if err != nil {
		return Info{}, fmt.Errorf("remote: handshake: %w", err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		return Info{}, fmt.Errorf("remote: handshake: %w", err)
	}
	if resp.Kind != reqInfo || resp.ID != 0 {
		return Info{}, fmt.Errorf("remote: handshake: unexpected %v reply (id %d): %w",
			resp.Kind, resp.ID, ErrBadFrame)
	}
	if resp.Code != 0 {
		return Info{}, fmt.Errorf("remote: handshake: %w", errorFromCode(reqInfo, resp.Code, resp.Msg))
	}
	return Info{NodeID: int(resp.NodeID), N: int(resp.N), Quorum: int(resp.Quorum),
		Algorithm: core.AlgorithmKind(resp.Algorithm).String(), Epoch: resp.Epoch}, nil
}

// call is one in-flight request; it implements recmem.Future,
// recmem.TagWitness and recmem.EpochWitness. Calls are the client-side
// counterpart of the server's pooled completion path (docs/adr/0010): they
// come from a pool, the done channel is lazy (a pipelined waiter usually
// finds the reply already arrived in a group-committed burst and never
// allocates it), and the pending map keyed by request id is the completion
// token — whoever removes the entry completes the call exactly once.
//
// Recycling discipline: only the synchronous sole-owner paths (do,
// remoteRegister.Read/Write, Info) release a call after its Wait returned —
// the SubmitRead/SubmitWrite paths hand the call to the application as a
// recmem.Future of unbounded lifetime, so those are never recycled and the
// garbage collector takes them. A released call is therefore never aliased,
// and the pool needs no generation counter here.
type call struct {
	cl   *Client
	kind reqKind
	id   uint64

	mu   sync.Mutex
	done bool
	ch   chan struct{} // lazy; non-nil only if a waiter blocked
	// set by complete under mu:
	op   uint64
	val  []byte
	lat  time.Duration
	tg   tag.Tag
	inc  uint64
	info Info
	err  error
}

// callPool recycles calls consumed by the synchronous request paths.
var callPool = sync.Pool{New: func() any { return &call{} }}

// closedCallCh is the pre-closed channel Done returns for completed calls.
var closedCallCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// release recycles a completed call. Only a sole owner (a synchronous path
// whose Wait returned) may call it.
func (c *call) release() {
	c.mu.Lock()
	ok := c.done
	c.mu.Unlock()
	if !ok {
		return // defensive: never recycle a pending call
	}
	*c = call{}
	callPool.Put(c)
}

// Op returns the server-side operation id, 0 until Done.
func (c *call) Op() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return 0
	}
	return c.op
}

// TagWitness returns the operation's tag witness once done: the tag the
// node adopted for the written or returned value. ok is false before
// completion and for operations without a witness.
func (c *call) TagWitness() (recmem.Tag, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return tag.Tag{}, false
	}
	return c.tg, !c.tg.IsZero()
}

// Incarnation returns the incarnation epoch the node completed the
// operation under (docs/adr/0006), once done. ok is false before completion
// and for failed operations; a successful write or read always carries one.
func (c *call) Incarnation() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return 0, false
	}
	return c.inc, c.err == nil && c.inc != 0
}

// Done returns a channel closed when the response (or a connection error)
// arrived; on a completed call it is a shared pre-closed channel, on a
// pending one the call's lazily-materialized channel.
func (c *call) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return closedCallCh
	}
	if c.ch == nil {
		c.ch = make(chan struct{})
	}
	return c.ch
}

// Wait blocks for the response. Cancelling ctx abandons the operation: the
// call is deregistered — completing with ctx's error for every waiter — so
// a late server reply is discarded instead of leaking the pending-call
// entry for the connection's lifetime. The server may still execute the
// operation; only the client-side wait is released.
func (c *call) Wait(ctx context.Context) ([]byte, error) {
	c.mu.Lock()
	if c.done {
		val, err := c.val, c.err
		c.mu.Unlock()
		return val, err
	}
	if c.ch == nil {
		c.ch = make(chan struct{})
	}
	ch := c.ch
	c.mu.Unlock()
	select {
	case <-ch:
	case <-ctx.Done():
		if c.cl.deregister(c) {
			// We won the race against the reader: no reply will complete
			// this call, so resolve it with the cancellation.
			c.complete(nil, 0, 0, tag.Tag{}, 0, ctx.Err())
		}
		// Either we completed it above, or the reader (a reply or a
		// connection failure) owns the entry and is about to.
		<-ch
	}
	c.mu.Lock()
	val, err := c.val, c.err
	c.mu.Unlock()
	return val, err
}

func (c *call) complete(val []byte, op uint64, lat time.Duration, tg tag.Tag, inc uint64, err error) {
	c.mu.Lock()
	c.val, c.op, c.lat, c.tg, c.inc, c.err = val, op, lat, tg, inc, err
	c.done = true
	ch := c.ch
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// completeInfo is complete for the Info reply, which additionally carries
// the decoded identity.
func (c *call) completeInfo(info Info) {
	c.mu.Lock()
	c.info = info
	c.mu.Unlock()
}

// send registers a call and writes its request frame. The request id is a
// field of the encoded frame (never patched in afterwards), so send
// allocates the id before encoding.
func (c *Client) send(req request) (*call, error) {
	c.mu.Lock()
	if c.sticky != nil {
		err := c.sticky
		c.mu.Unlock()
		return nil, err
	}
	if c.conn == nil {
		c.mu.Unlock()
		// Rejected before anything hit the wire: the operation provably
		// never executed, exactly like an operation invoked on a crashed
		// process.
		return nil, fmt.Errorf("remote: %s: connection down, redialing: %w", c.addr, recmem.ErrDown)
	}
	cl := callPool.Get().(*call)
	cl.cl, cl.kind = c, req.Kind
	cw, gen := c.cw, c.gen
	c.nextID++
	cl.id = c.nextID
	req.ID = cl.id
	c.pending[cl.id] = cl
	c.mu.Unlock()

	// The request is encoded straight into the writer's pending batch; this
	// goroutine then flushes it unless a flush already in flight will.
	err := cw.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendRequest(b, req) })
	if err != nil {
		if c.deregister(cl) {
			*cl = call{} // never escaped; recycle directly
			callPool.Put(cl)
		}
		return nil, err
	}
	if err := cw.Flush(); err != nil {
		// The frame may have partially reached the server before the write
		// failed: the operation's fate is unknown. connFailed resolves every
		// pending call of this connection — ours included — with
		// recmem.ErrCrashed, so the outcome routes through the future like
		// any other lost-connection operation.
		c.connFailed(gen, fmt.Errorf("remote: write: %w", err))
	}
	return cl, nil
}

// readLoop matches response frames to pending calls until the connection
// dies, then hands the generation to the redialer. The frame buffer is
// reused across frames: decodeResponse copies the value and message out, so
// nothing handed to a call aliases it.
func (c *Client) readLoop(conn net.Conn, gen uint64) {
	rb := frame.Get()
	defer frame.Put(rb)
	for {
		body, err := frame.Read(conn, rb, MaxFrame)
		if err != nil {
			c.connFailed(gen, fmt.Errorf("remote: connection: %w", err))
			_ = conn.Close()
			return
		}
		resp, err := decodeResponse(body)
		if err != nil {
			// A protocol-version mismatch is terminal — redialing the same
			// node cannot fix it. Any other malformed frame is treated as a
			// transport failure: drop the connection and redial.
			if errors.Is(err, ErrBadVersion) {
				c.terminate(fmt.Errorf("remote: %w", err))
			} else {
				c.connFailed(gen, fmt.Errorf("remote: %w", err))
			}
			_ = conn.Close()
			return
		}
		c.mu.Lock()
		cl := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if cl == nil {
			continue // response to an abandoned (deregistered) id; ignore
		}
		if resp.Code != 0 {
			cl.complete(nil, 0, 0, tag.Tag{}, 0, errorFromCode(cl.kind, resp.Code, resp.Msg))
			continue
		}
		val := resp.Value
		if resp.Kind == reqRead && !resp.Present {
			val = nil
		}
		if resp.Kind == reqInfo {
			cl.completeInfo(Info{NodeID: int(resp.NodeID), N: int(resp.N), Quorum: int(resp.Quorum),
				Algorithm: core.AlgorithmKind(resp.Algorithm).String(), Epoch: resp.Epoch})
		}
		cl.complete(val, resp.Op, time.Duration(resp.LatencyUS)*time.Microsecond, resp.Tag, resp.Epoch, nil)
	}
}

// deregister removes cl from the pending map if it still owns its entry,
// reporting whether the caller is now responsible for completing it. The
// map entry is the completion token: whoever removes it (a reply in
// readLoop, connFailed's map swap, or a cancelled Wait) completes the call
// exactly once.
func (c *Client) deregister(cl *call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[cl.id] != cl {
		return false
	}
	delete(c.pending, cl.id)
	return true
}

// connFailed tears down connection generation gen after a transport error:
// every pending call resolves with recmem.ErrCrashed — an operation cut off
// mid-flight has unknown fate, exactly like one interrupted by the
// process's crash; the recording rules treat it conservatively — and the
// background redialer takes over. Calls for stale generations (a send's
// write error racing the readLoop's failure, or vice versa) are no-ops:
// whoever observed the failure first already handled it.
func (c *Client) connFailed(gen uint64, cause error) {
	c.mu.Lock()
	if c.sticky != nil || c.conn == nil || c.gen != gen {
		c.mu.Unlock()
		return
	}
	conn := c.conn
	c.conn = nil
	pending := c.pending
	c.pending = make(map[uint64]*call)
	c.notifyLocked(StateReconnecting, cause)
	c.mu.Unlock()

	_ = conn.Close()
	err := fmt.Errorf("remote: connection to %s lost: %v (operation fate unknown): %w",
		c.addr, cause, recmem.ErrCrashed)
	for _, cl := range pending {
		cl.complete(nil, 0, 0, tag.Tag{}, 0, err)
	}
	go c.redialLoop()
}

// redialLoop re-establishes the connection with capped exponential backoff.
// Exactly one redialLoop runs at a time: it is spawned by connFailed, which
// fires once per generation, and a new generation only exists once this
// loop installed it.
func (c *Client) redialLoop() {
	if c.opts.RedialAttempts < 0 {
		c.terminate(fmt.Errorf("remote: %s: redialing disabled: %w", c.addr, ErrRedialExhausted))
		return
	}
	backoff := c.opts.RedialMin
	for attempt := 1; ; attempt++ {
		time.Sleep(backoff)
		if backoff *= 2; backoff > c.opts.RedialMax {
			backoff = c.opts.RedialMax
		}
		c.mu.Lock()
		if c.sticky != nil {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, cw, info, err := c.connect()
		if err == nil {
			c.mu.Lock()
			if c.sticky != nil {
				c.mu.Unlock()
				_ = conn.Close()
				return
			}
			if c.haveInfo && (info.NodeID != c.info.NodeID || info.N != c.info.N) {
				was := c.info
				c.mu.Unlock()
				_ = conn.Close()
				c.terminate(fmt.Errorf("remote: %s changed identity across reconnect: was node %d of %d, now node %d of %d",
					c.addr, was.NodeID, was.N, info.NodeID, info.N))
				return
			}
			// An epoch that ADVANCED across the reconnect is the normal
			// crash-recovery story — the recording layer turns it into a
			// recorded crash (docs/adr/0006). An epoch that went BACKWARDS is
			// not a crash of the node but of the abstraction: the peer is
			// replaying a stale incarnation (restored snapshot, cloned state
			// dir), and no history over its replies can be trusted.
			if c.haveInfo && info.Epoch < c.info.Epoch {
				was := c.info
				c.mu.Unlock()
				_ = conn.Close()
				c.terminate(fmt.Errorf("remote: %s replayed a stale incarnation epoch across reconnect: was %d, now %d",
					c.addr, was.Epoch, info.Epoch))
				return
			}
			c.conn, c.cw, c.info, c.haveInfo = conn, cw, info, true
			c.gen++
			gen := c.gen
			c.notifyLocked(StateConnected, nil)
			c.mu.Unlock()
			go c.readLoop(conn, gen)
			return
		}
		if errors.Is(err, ErrBadVersion) {
			c.terminate(err)
			return
		}
		if c.opts.RedialAttempts > 0 && attempt >= c.opts.RedialAttempts {
			c.terminate(fmt.Errorf("remote: %s unreachable after %d redial attempts: %v: %w",
				c.addr, attempt, err, ErrRedialExhausted))
			return
		}
	}
}

// terminate makes the client permanently unusable: the sticky error answers
// every pending and future call. Reached only through Close, a
// protocol-version mismatch, an identity change across reconnect, or the
// redialer giving up.
func (c *Client) terminate(err error) {
	c.mu.Lock()
	first := c.sticky == nil
	if first {
		c.sticky = err
	}
	sticky := c.sticky
	conn := c.conn
	c.conn = nil
	pending := c.pending
	c.pending = make(map[uint64]*call)
	if first {
		c.notifyLocked(StateTerminal, sticky)
	}
	c.mu.Unlock()

	if conn != nil {
		_ = conn.Close()
	}
	for _, cl := range pending {
		cl.complete(nil, 0, 0, tag.Tag{}, 0, sticky)
	}
}

// Close closes the connection and stops the redialer; pending operations
// fail with ErrClosed. Close is idempotent: once the client is terminated —
// by an earlier Close, a protocol error, the redialer giving up, or the
// read loop having already torn the socket down — it returns nil instead of
// a spurious double-close error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.terminate(ErrClosed)
	return nil
}

// errorFromCode maps a server error code back to the canonical error.
func errorFromCode(kind reqKind, code errCode, msg string) error {
	switch code {
	case codeCrashed:
		return recmem.ErrCrashed
	case codeDown:
		return recmem.ErrDown
	case codeNotDown:
		return recmem.ErrNotDown
	case codeCannotRecover:
		return recmem.ErrCannotRecover
	case codeNotWriter:
		return recmem.ErrNotWriter
	case codeBadConsistency:
		return recmem.ErrBadConsistency
	case codeDeadline:
		return context.DeadlineExceeded
	default:
		return &Error{Kind: kind.String(), Msg: msg}
	}
}

// Register resolves a handle on the named register; the request template
// (encoded name, consistency validation) is fixed once per handle.
func (c *Client) Register(name string) *recmem.Register {
	return recmem.NewRegister(name, &remoteRegister{c: c, name: name})
}

// do sends a request and waits it out, recycling the call once its Wait
// returned — at that point the call is complete (even an abandoned wait
// resolves it before returning), nothing else references it, and do is its
// sole owner.
func (c *Client) do(ctx context.Context, req request) error {
	cl, err := c.send(req)
	if err != nil {
		return err
	}
	_, err = cl.Wait(ctx)
	cl.release()
	return err
}

// Ping round-trips the connection.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, request{Kind: reqPing})
}

// Info describes the node behind the connection.
type Info struct {
	// NodeID is the node's process id; N the emulation size; Quorum the
	// majority ⌈(N+1)/2⌉.
	NodeID, N, Quorum int
	// Algorithm is the emulation algorithm the node runs.
	Algorithm string
	// Epoch is the node's incarnation epoch at the time of the handshake:
	// 1 on the node's first-ever boot, strictly higher after every recovery
	// (docs/adr/0006). A regression across a reconnect terminates the
	// client — the peer is replaying a stale incarnation.
	Epoch uint64
}

// Info queries the node's identity and emulation parameters.
func (c *Client) Info(ctx context.Context) (Info, error) {
	cl, err := c.send(request{Kind: reqInfo})
	if err != nil {
		return Info{}, err
	}
	if _, err := cl.Wait(ctx); err != nil {
		cl.release()
		return Info{}, err
	}
	cl.mu.Lock()
	info := cl.info
	cl.mu.Unlock()
	cl.release()
	return info, nil
}

// Crash fails the process behind the node: its volatile state is lost and
// in-flight operations (of every client) return ErrCrashed.
func (c *Client) Crash(ctx context.Context) error {
	return c.do(ctx, request{Kind: reqCrash})
}

// Recover restarts the crashed process, blocking until the algorithm's
// recovery procedure completes (a reachable majority for the persistent
// algorithm).
func (c *Client) Recover(ctx context.Context) error {
	return c.do(ctx, request{Kind: reqRecover, DeadlineUS: deadlineUS(ctx)})
}

// deadlineUS converts a context deadline to the wire's microsecond field.
// Deadlines beyond the field's range (~71 minutes) are clamped to its
// maximum, never to 0 ("no deadline"), so a long client deadline is not
// silently replaced by the server's much shorter default.
func deadlineUS(ctx context.Context) uint32 {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return clampUS(time.Until(d).Microseconds())
}

// clampUS clamps a microsecond count into the wire field: at least 1 (an
// already-expired deadline must still read as "bounded"), at most the
// field's maximum.
func clampUS(us int64) uint32 {
	if us <= 0 {
		return 1
	}
	if us > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(us)
}

// remoteRegister is the recmem.RegisterBackend over one connection.
type remoteRegister struct {
	c    *Client
	name string
}

var _ recmem.RegisterBackend = (*remoteRegister)(nil)

// opDeadlineUS resolves the per-op deadline shipped to the server; like
// deadlineUS, oversized deadlines clamp to the field's maximum. Only the
// zero value means "no deadline". A negative (already-expired) deadline
// never gets this far — recmem.Register's admission check rejects it before
// the backend is called — so a dead operation is neither shipped as
// unbounded nor raced against its own reply.
func opDeadlineUS(o recmem.OpOptions) uint32 {
	if o.Deadline == 0 {
		return 0
	}
	return clampUS(o.Deadline.Microseconds())
}

// Read and Write are the synchronous sole-owner paths: the call never
// escapes them (the value slice a read hands back is an owned copy made at
// decode time, independent of the call), so after extracting the outcome
// they release it to the pool — a steady-state synchronous op recycles its
// call object end to end.
func (r *remoteRegister) Read(ctx context.Context, o recmem.OpOptions) ([]byte, recmem.OpID, error) {
	fut, err := r.SubmitRead(o)
	if err != nil {
		capture(o, nil, err)
		return nil, 0, err
	}
	val, err := fut.Wait(ctx)
	capture(o, fut, err)
	op := recmem.OpID(fut.Op())
	fut.(*call).release()
	return val, op, err
}

func (r *remoteRegister) Write(ctx context.Context, val []byte, o recmem.OpOptions) (recmem.OpID, error) {
	fut, err := r.SubmitWrite(val, o)
	if err != nil {
		capture(o, nil, err)
		return 0, err
	}
	_, err = fut.Wait(ctx)
	capture(o, fut, err)
	op := recmem.OpID(fut.Op())
	fut.(*call).release()
	return op, err
}

// capture resolves the WithWitness and WithEpoch captures like every
// backend: the operation's tag and the incarnation epoch the node served it
// under on success, zero on failure — a failed operation must never leave a
// previous operation's witness or epoch in the caller's variables.
func capture(o recmem.OpOptions, fut recmem.Future, err error) {
	if o.Witness != nil {
		*o.Witness = tag.Tag{}
		if err == nil {
			*o.Witness, _ = fut.(*call).TagWitness()
		}
	}
	if o.Epoch != nil {
		*o.Epoch = 0
		if err == nil {
			*o.Epoch, _ = fut.(*call).Incarnation()
		}
	}
}

func (r *remoteRegister) SubmitRead(o recmem.OpOptions) (recmem.Future, error) {
	// The shared mapping is the wire contract: core.ReadMode numbering is
	// the protocol's consistency byte. Algorithm validation happens at the
	// node.
	mode, err := o.ReadMode()
	if err != nil {
		return nil, err
	}
	return r.c.send(request{Kind: reqRead, Reg: r.name,
		Consistency: uint8(mode), DeadlineUS: opDeadlineUS(o)})
}

func (r *remoteRegister) SubmitWrite(val []byte, o recmem.OpOptions) (recmem.Future, error) {
	return r.c.send(request{Kind: reqWrite, Reg: r.name,
		Value: val, DeadlineUS: opDeadlineUS(o)})
}
