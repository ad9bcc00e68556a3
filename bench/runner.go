package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"recmem"
	"recmem/remote"
)

const (
	numSetups  = 3                // set-ups per run; setup_s is their median
	warmRun    = time.Second      // the workload's own loop, after every register was written once
	opLimit    = 5 * time.Second  // an operation not acknowledged by then has failed
	retryEvery = time.Millisecond // open loop: pause before re-issuing a cut-off operation
	auditConn  = numClients       // auditor index of the read-back connection to node 2
	probeReg   = "probe"          // written through the victim to tell when it serves again
)

// clientSpan is the driver's own span of one operation, joined with the
// nodes' events through the server-side operation id.
type clientSpan struct {
	client    int8
	write     bool
	reg       uint32
	op        uint64
	submit    int64 // entering SubmitWrite/SubmitRead (or the synchronous call)
	submitted int64 // the submit call returned (asynchronous operations only)
	done      int64
}

// samples are the latencies one client measured in one phase, in
// nanoseconds.
type samples struct{ write, read []int64 }

// client is one load goroutine's connection and generator.
type client struct {
	id   int
	conn *remote.Client
	hot  []*recmem.Register
	gen  *opGen

	mu       sync.Mutex // closedWindow: draw and submit are one step, so a register's writes reach the wire in sequence order
	regLocks []sync.Mutex

	lat   []samples // per phase
	lag   []int64
	spans []clientSpan
}

// run is one measured pass of a workload over one mesh.
type run struct {
	s      spec
	m      *mesh
	audit  *auditor
	cl     [numClients]*client
	traced bool

	attempted, failed atomic.Int64
	acked             atomic.Int64 // operations acknowledged in the phase being counted
	recording         atomic.Bool  // false during warm-up

	phaseStart, phaseEnd []time.Time
	active               []time.Duration // time load was offered in each phase, pauses between slices excluded
	cpu                  time.Duration   // nodes' CPU over the first phase
	ackedPrimary         int64
	writesPrimary        int64
	diskGrowth           int64
	cycles               []cycle
	epoch0               uint64
}

func newRun(s spec, seed uint64, m *mesh) *run {
	r := &run{s: s, m: m, traced: m.cfg.traced, audit: newAuditor(s.registers(), numClients, numClients+1),
		phaseStart: make([]time.Time, len(s.phases)), phaseEnd: make([]time.Time, len(s.phases)),
		active: make([]time.Duration, len(s.phases))}
	for c := range r.cl {
		cl := &client{id: c, conn: m.clients[c], gen: newOpGen(s, seed, c), lat: make([]samples, len(s.phases)),
			hot: make([]*recmem.Register, s.hot), regLocks: make([]sync.Mutex, s.hot)}
		for i := range cl.hot {
			cl.hot[i] = cl.conn.Register(regName(uint32(i)))
		}
		r.cl[c] = cl
	}
	return r
}

func (cl *client) register(reg uint32) *recmem.Register {
	if int(reg) < len(cl.hot) {
		return cl.hot[reg]
	}
	return cl.conn.Register(regName(reg))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.audit.violate(format, args...)
}

// retriable reports whether err says the operation was cut off by, or
// refused because of, the death of the node it went through.
func retriable(err error) bool {
	return errors.Is(err, recmem.ErrCrashed) || errors.Is(err, recmem.ErrDown)
}

// syncOp performs one synchronous operation and audits its reply.
func (r *run) syncOp(cl *client, o op, phase int) {
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	var wit recmem.Tag
	var id recmem.OpID
	reg := cl.register(o.reg)
	r.attempted.Add(1)
	sp := clientSpan{client: int8(cl.id), write: o.write, reg: o.reg}
	if o.write {
		seq := r.audit.nextSeq(o.reg)
		val := encodeValue(uint32(cl.id), o.reg, seq)
		sp.submit = now()
		err := reg.Write(ctx, val, recmem.WithWitness(&wit), recmem.WithCost(&id))
		sp.done = now()
		if err != nil {
			r.fail("client %d write %s: %v", cl.id, reg.Name(), err)
			return
		}
		r.audit.wrote(cl.id, o.reg, seq, wit)
	} else {
		fl := r.audit.beginRead(cl.id, o.reg)
		sp.submit = now()
		val, err := reg.Read(ctx, recmem.WithWitness(&wit), recmem.WithCost(&id))
		sp.done = now()
		if err != nil {
			r.fail("client %d read %s: %v", cl.id, reg.Name(), err)
			return
		}
		if !r.audit.endRead(cl.id, o.reg, fl, val, wit) {
			r.failed.Add(1)
			return
		}
	}
	sp.op = uint64(id)
	cl.record(r, phase, sp, sp.submit)
}

// record keeps an acknowledged operation's latency, counted from `from`, and
// its span.
func (cl *client) record(r *run, phase int, sp clientSpan, from int64) {
	if !r.recording.Load() {
		return
	}
	r.acked.Add(1)
	lat := &cl.lat[phase]
	if sp.write {
		lat.write = append(lat.write, sp.done-from)
	} else {
		lat.read = append(lat.read, sp.done-from)
	}
	if r.traced {
		cl.spans = append(cl.spans, sp)
	}
}

// inflight is a submitted asynchronous operation.
type inflight struct {
	sp  clientSpan
	seq uint64
	fl  floor
	wf  *recmem.WriteFuture
	rf  *recmem.ReadFuture
}

// submit starts one asynchronous operation. seq is the write sequence to
// use, or 0 to reserve the next one.
func (r *run) submit(cl *client, o op, seq uint64) (*inflight, error) {
	f := &inflight{sp: clientSpan{client: int8(cl.id), write: o.write, reg: o.reg}, seq: seq}
	reg := cl.register(o.reg)
	var err error
	if o.write {
		if f.seq == 0 {
			f.seq = r.audit.nextSeq(o.reg)
		}
		val := encodeValue(uint32(cl.id), o.reg, f.seq)
		f.sp.submit = now()
		f.wf, err = reg.SubmitWrite(val)
	} else {
		f.fl = r.audit.beginRead(cl.id, o.reg)
		f.sp.submit = now()
		f.rf, err = reg.SubmitRead()
	}
	f.sp.submitted = now()
	return f, err
}

// await waits for a submitted operation and audits its reply. A nil error
// with ok false is an audit violation, already counted.
func (r *run) await(cl *client, f *inflight, ctx context.Context) (ok bool, err error) {
	if f.sp.write {
		err = f.wf.Wait(ctx)
		f.sp.done = now()
		if err != nil {
			return false, err
		}
		wit, _ := f.wf.TagWitness()
		r.audit.wrote(cl.id, f.sp.reg, f.seq, wit)
		f.sp.op = uint64(f.wf.Op())
		return true, nil
	}
	val, err := f.rf.Wait(ctx)
	f.sp.done = now()
	if err != nil {
		return false, err
	}
	wit, _ := f.rf.TagWitness()
	f.sp.op = uint64(f.rf.Op())
	if !r.audit.endRead(cl.id, f.sp.reg, f.fl, val, wit) {
		r.failed.Add(1)
		return false, nil
	}
	return true, nil
}

// closedLoop runs one phase of a closed-loop workload through the given
// clients until stop says so: one synchronous operation in flight per
// client, or a window of futures.
func (r *run) closedLoop(phase int, clients []*client, stop func() bool) {
	ph := r.s.phases[phase]
	var wg sync.WaitGroup
	for _, cl := range clients {
		slots := 1
		if r.s.loop == closedWindow {
			slots = r.s.window
		}
		for range slots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop() {
					if r.s.loop == closedSync {
						r.syncOp(cl, cl.gen.next(ph.writeShare), phase)
						continue
					}
					cl.mu.Lock()
					f, err := r.submit(cl, cl.gen.next(ph.writeShare), 0)
					cl.mu.Unlock()
					r.attempted.Add(1)
					ctx, cancel := context.WithTimeout(context.Background(), opLimit)
					if err == nil {
						var ok bool
						if ok, err = r.await(cl, f, ctx); ok {
							cl.mu.Lock()
							cl.record(r, phase, f.sp, f.sp.submit)
							cl.mu.Unlock()
						}
					}
					cancel()
					if err != nil {
						r.fail("client %d reg %d: %v", cl.id, f.sp.reg, err)
					}
				}
			}()
		}
	}
	wg.Wait()
}

// openLoop issues each client's operations on a fixed timetable until the
// window ends. An operation's latency counts from the moment it was due, so
// a stall shows in every operation it delayed; one cut off by the victim's
// death is re-issued until acknowledged.
func (r *run) openLoop(phase int, start time.Time, window time.Duration) {
	ph := r.s.phases[phase]
	var wg sync.WaitGroup
	for _, cl := range r.cl {
		// The two clients' timetables are offset by half a gap.
		gap := time.Second / time.Duration(2*r.s.rate)
		sched := schedule{start: start.Add(time.Duration(cl.id) * gap / numClients), gap: gap}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sched.count(window) {
				due := sched.due(k)
				time.Sleep(time.Until(due))
				o := cl.gen.next(ph.writeShare)
				if r.recording.Load() {
					cl.lag = append(cl.lag, lagOf(due, time.Now()))
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.openOp(cl, o, phase, due)
				}()
			}
		}()
	}
	wg.Wait()
}

// lagOf is how late the generator ran for an operation due at `due`.
func lagOf(due, issued time.Time) int64 { return max(0, int64(issued.Sub(due))) }

func (r *run) openOp(cl *client, o op, phase int, due time.Time) {
	r.attempted.Add(1)
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(opLimit))
	defer cancel()
	var seq uint64
	if o.write {
		// One write per register at a time: a re-issued write must not land
		// after a later one that was acknowledged meanwhile.
		cl.regLocks[o.reg].Lock()
		defer cl.regLocks[o.reg].Unlock()
		seq = r.audit.nextSeq(o.reg)
	}
	for {
		f, err := r.submit(cl, o, seq)
		if err == nil {
			var ok bool
			if ok, err = r.await(cl, f, ctx); ok {
				cl.mu.Lock()
				cl.record(r, phase, f.sp, due.UnixNano())
				cl.mu.Unlock()
				return
			}
			if err == nil {
				return // audit violation, counted
			}
		}
		if !retriable(err) || ctx.Err() != nil {
			r.fail("client %d reg %d due %v: %v", cl.id, o.reg, due.Format("15:04:05.000"), err)
			return
		}
		time.Sleep(retryEvery)
	}
}

// warmup writes every hot register once through its owner, so no read ever
// meets an unwritten register, then runs the workload's own first phase for
// a moment: connections hot, lazy register maps materialised.
func (r *run) warmup() error {
	var wg sync.WaitGroup
	for _, cl := range r.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var window []*inflight
			flush := func(keep int) {
				for len(window) > keep {
					ctx, cancel := context.WithTimeout(context.Background(), opLimit)
					if _, err := r.await(cl, window[0], ctx); err != nil {
						r.fail("warm-up write reg %d: %v", window[0].sp.reg, err)
					}
					cancel()
					window = window[1:]
				}
			}
			for reg := uint32(cl.id); int(reg) < r.s.hot; reg += numClients {
				f, err := r.submit(cl, op{write: true, reg: reg}, 0)
				if err != nil {
					r.fail("warm-up write reg %d: %v", reg, err)
					continue
				}
				window = append(window, f)
				flush(63)
			}
			flush(0)
		}()
	}
	wg.Wait()
	r.offer(0, time.Now(), warmRun)
	if n := r.failed.Load(); n > 0 {
		return &warmupError{failed: n, first: r.audit.first}
	}
	return nil
}

// warmupError says the mesh failed operations before anything was measured.
type warmupError struct {
	failed int64
	first  []string
}

func (e *warmupError) Error() string {
	return fmt.Sprintf("%d operations failed during warm-up: %s", e.failed, strings.Join(e.first, "; "))
}

// probe writes through the victim's client and returns the incarnation epoch
// that acknowledged it.
func (r *run) probe(ctx context.Context) (uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	var epoch uint64
	err := r.cl[victim].conn.Register(probeReg).Write(ctx, []byte("up?"), recmem.WithEpoch(&epoch))
	return epoch, err
}

// kill runs one kill cycle and checks that the new incarnation reports a
// higher epoch than the one it replaced.
func (r *run) kill() error {
	prev := r.epoch0
	if n := len(r.cycles); n > 0 {
		prev = r.cycles[n-1].epoch
	}
	cy, err := r.m.killCycle(r.probe, prev)
	if err != nil {
		return err
	}
	r.cycles = append(r.cycles, cy)
	return nil
}

// begin readies a run for kill cycles: it learns the victim's epoch.
func (r *run) begin() error {
	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	info, err := r.cl[victim].conn.Info(ctx)
	if err != nil {
		return fmt.Errorf("victim info: %w", err)
	}
	r.epoch0 = info.Epoch
	return nil
}

// plan is how one mesh's share of a run is laid out: the window is offered
// in `slices` equal parts, with `between` (if not nil) called after each;
// the victim is killed `kills` times inside every phase if the workload
// kills under load, or `codas` times after the window if it does not.
type plan struct {
	window  time.Duration
	slices  int
	kills   int
	codas   int
	between func(phase int) error
}

// measure runs the timed window: the phases, the kill cycles inside or after
// them, and the read-back audit.
func (r *run) measure(pl plan) error {
	if err := r.begin(); err != nil {
		return err
	}
	if err := r.runPhases(pl); err != nil {
		return err
	}
	if r.traced {
		if err := r.m.flushSpans(); err != nil {
			return err
		}
	}
	if r.s.killCycles == 0 {
		for range pl.codas {
			if err := r.coda(); err != nil {
				return err
			}
		}
	}
	return r.readBack()
}

// runPhases offers the workload's load for the length of the window and
// takes the readings that are counted over the first phase.
func (r *run) runPhases(pl plan) error {
	kills := 0
	if r.s.killCycles > 0 {
		kills = pl.kills / pl.slices
	}
	for p, ph := range r.s.phases {
		dur := time.Duration(float64(pl.window) * ph.share)
		if p == 0 && r.traced {
			r.m.signalNodes(syscall.SIGUSR1) // traced nodes take a counter reading
		}
		cpu0, disk0, writes0 := r.m.nodesCPU(), r.m.dirBytes(), r.writes()
		r.acked.Store(0)
		r.phaseStart[p] = time.Now()
		r.active[p] = 0
		for range pl.slices {
			if err := r.slice(p, dur/time.Duration(pl.slices), kills); err != nil {
				return err
			}
			if pl.between != nil {
				if err := pl.between(p); err != nil {
					return err
				}
			}
		}
		r.phaseEnd[p] = time.Now()
		if p == 0 {
			r.cpu = r.m.nodesCPU() - cpu0
			r.ackedPrimary = r.acked.Load()
			r.writesPrimary = r.writes() - writes0
			r.diskGrowth = r.m.dirBytes() - disk0
			if r.traced {
				r.m.signalNodes(syscall.SIGUSR1)
			}
		}
	}
	return nil
}

// slice offers phase p's load for dur and kills the victim `kills` times,
// evenly spaced, meanwhile.
func (r *run) slice(p int, dur time.Duration, kills int) error {
	r.recording.Store(true)
	defer r.recording.Store(false)
	start := time.Now()
	killErr := make(chan error, 1)
	go func() {
		for i := range kills {
			period := dur / time.Duration(kills)
			time.Sleep(time.Until(start.Add(period/2 + time.Duration(i)*period)))
			if err := r.kill(); err != nil {
				killErr <- err
				return
			}
		}
		killErr <- nil
	}()
	r.offer(p, start, dur)
	r.active[p] += time.Since(start)
	return <-killErr
}

// offer offers phase p's load from start for dur.
func (r *run) offer(p int, start time.Time, dur time.Duration) {
	if r.s.loop == openLoop {
		r.openLoop(p, start, dur)
		return
	}
	until := start.Add(dur)
	r.closedLoop(p, r.cl[:], func() bool { return !time.Now().Before(until) })
}

// coda kills the victim once while the survivor's client keeps working. An
// idle mesh would make the outage a coin toss between 120 and 220 ms: the
// peers' connections to the dead incarnation swallow the first message they
// carry after it is gone, and if nothing is sent before the new incarnation
// asks for acknowledgements, its first round waits out one 100 ms
// retransmission.
func (r *run) coda() error {
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.closedLoop(0, r.cl[:1], done.Load)
	}()
	err := r.kill()
	done.Store(true)
	wg.Wait()
	return err
}

func (r *run) writes() int64 {
	var n int64
	for _, cl := range r.cl {
		for _, l := range cl.lat {
			n += int64(len(l.write))
		}
	}
	return n
}

// readBack reads every hot register through all three nodes: each must hold
// at least the last acknowledged write. It also checks that the victim's
// epoch advanced with every kill cycle.
func (r *run) readBack() error {
	third, err := remote.Dial(r.m.controls[auditConn], remote.Options{})
	if err != nil {
		return fmt.Errorf("dial node %d for read-back: %w", auditConn, err)
	}
	defer third.Close()
	conns := []*remote.Client{r.cl[0].conn, r.cl[1].conn, third}
	var wg sync.WaitGroup
	for c, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type pending struct {
				reg uint32
				fl  floor
				rf  *recmem.ReadFuture
			}
			var window []pending
			flush := func(keep int) {
				for len(window) > keep {
					p := window[0]
					window = window[1:]
					ctx, cancel := context.WithTimeout(context.Background(), opLimit)
					val, err := p.rf.Wait(ctx)
					cancel()
					wit, _ := p.rf.TagWitness()
					if err != nil {
						r.fail("read-back of reg %d through node %d: %v", p.reg, c, err)
					} else if !r.audit.endRead(c, p.reg, p.fl, val, wit) {
						r.failed.Add(1)
					}
				}
			}
			for reg := range uint32(r.s.hot) {
				r.attempted.Add(1)
				fl := r.audit.beginRead(c, reg)
				rf, err := conn.Register(regName(reg)).SubmitRead()
				if err != nil {
					r.fail("read-back of reg %d through node %d: %v", reg, c, err)
					continue
				}
				window = append(window, pending{reg, fl, rf})
				flush(63)
			}
			flush(0)
		}()
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), opLimit)
	defer cancel()
	info, err := r.cl[victim].conn.Info(ctx)
	if err != nil {
		return fmt.Errorf("victim info: %w", err)
	}
	if want := r.epoch0 + uint64(len(r.cycles)); info.Epoch < want {
		r.fail("victim epoch %d after %d kill cycles from epoch %d: must have advanced once per cycle", info.Epoch, len(r.cycles), r.epoch0)
	}
	return nil
}
