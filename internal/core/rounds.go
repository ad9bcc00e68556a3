package core

import (
	"slices"
	"time"

	"recmem/internal/tag"
	"recmem/internal/wire"
)

// This file hosts the node's phase machines (ops.go, docs/adr/0026). A
// machine steps under nd.mu on one of four inputs: an acknowledgement the
// listener routes (routeAcks), a log the logger settles (commitGroup), its
// retransmission timer, a crash (crashLocked). The host stages the sweeps on
// the outbox, pushes the records onto the logger, arms the timer and settles
// the submissions whose execution ended; their futures complete once nd.mu is
// released (fire), since a future's callback may do anything.

// execution is a pooled phase machine with its retransmission timer and what
// its end settles: a register's batch (ref), a safe read (sub) or a recovery
// step (rc).
type execution struct {
	exec
	nd  *Node
	ref *RegisterRef
	sub *batchSub
	rc  *recovery

	// Guarded by nd.mu: armed says an expiry is due, stale counts expiries
	// already on their way that a later disarm or re-arm made stale.
	timer *time.Timer
	armed bool
	stale int
}

// completion is a settled operation's outcome, for fire to hand its future.
type completion struct {
	fut *Future
	val []byte
	wit tag.Tag
	inc uint64
	err error
}

// getExec takes an execution from the node's pool (NewNode sets its New).
func (nd *Node) getExec() *execution { return nd.execPool.Get().(*execution) }

// launch registers the just started x under its RPC and takes its first
// step. Callers hold nd.mu.
func (nd *Node) launch(x *execution, done *[]completion) {
	nd.execs[x.id] = x
	nd.apply(x, x.begin(), done)
}

// apply carries out one step's output for x. Callers hold nd.mu.
func (nd *Node) apply(x *execution, o output, done *[]completion) {
	if o.round {
		nd.recordRound(x.op, o.sends, o.resent)
	}
	if len(o.send) > 0 {
		nd.ob.push(o.send...)
		x.arm()
	} else if o.round || o.done {
		x.disarm()
	}
	if o.log {
		nd.adopter.push(logItem{pre: x.pre, x: x, id: x.id})
	}
	if o.done {
		delete(nd.execs, x.id)
		nd.settle(x, done)
	}
}

// routeAcks feeds each acknowledgement of a delivery group to the execution
// whose RPC it carries; those of ended executions are dropped.
func (nd *Node) routeAcks(group []wire.Envelope, done *[]completion) {
	if !slices.ContainsFunc(group, func(env wire.Envelope) bool { return env.Kind.IsAck() }) {
		return
	}
	nd.mu.Lock()
	for _, env := range group {
		if x := nd.execs[env.RPC]; x != nil && env.Kind.IsAck() {
			nd.apply(x, x.ack(env), done)
		}
	}
	nd.mu.Unlock()
}

// failExecs feeds the crash input to every live execution. Callers hold
// nd.mu and ended the epoch first, so no ending starts another execution.
func (nd *Node) failExecs(done *[]completion) {
	for _, x := range nd.execs {
		nd.apply(x, x.crash(), done)
	}
}

// settle hands x's outcome to what it ran for and pools x. Callers hold nd.mu.
func (nd *Node) settle(x *execution, done *[]completion) {
	if x.kind == execRead && x.err == nil && !nd.proto.singleWriter {
		if x.rounds == 1 {
			nd.readsOne.Add(1)
		} else {
			nd.readsTwo.Add(1)
		}
	}
	switch {
	case x.ref != nil:
		x.ref.executed(x, done)
	case x.sub != nil:
		nd.complete(x.sub, x.val, x.tag, x.err, done)
	case x.rc != nil:
		x.rc.executed(x.err)
	}
	x.ref, x.sub, x.rc = nil, nil, nil
	nd.execPool.Put(x)
}

// complete settles one submission (endOpLocked) and recycles it; its future
// waits in done for fire. Callers hold nd.mu.
func (nd *Node) complete(s *batchSub, val []byte, wit tag.Tag, err error, done *[]completion) {
	inc, err := nd.endOpLocked(s, err, val, wit)
	*done = append(*done, completion{fut: s.fut, val: val, wit: wit, inc: inc, err: err})
	putSub(s)
}

// fire completes settled futures; callers have released nd.mu.
func fire(done []completion) {
	for i, c := range done {
		c.fut.complete(c.val, c.wit, c.inc, c.err)
		done[i] = completion{}
	}
}

// arm (re)starts x's retransmission timer. Callers hold nd.mu.
func (x *execution) arm() {
	if x.timer == nil {
		x.timer = time.AfterFunc(x.nd.opts.RetransmitEvery, x.expire)
	} else if !x.timer.Reset(x.nd.opts.RetransmitEvery) && x.armed {
		x.stale++ // the previous arm's expiry is already on its way
	}
	x.armed = true
}

// disarm stops x's retransmission timer. Callers hold nd.mu.
func (x *execution) disarm() {
	if x.armed && !x.timer.Stop() {
		x.stale++
	}
	x.armed = false
}

// expire feeds the timeout input, unless this expiry is stale.
func (x *execution) expire() {
	nd := x.nd
	var done []completion
	nd.mu.Lock()
	if x.stale > 0 {
		x.stale--
	} else if x.armed {
		x.armed = false
		if nd.execs[x.id] == x {
			nd.apply(x, x.timeout(), &done)
		}
	}
	nd.mu.Unlock()
	fire(done)
}

// recovery is a recovery step's wait for its executions: done closes when
// none is left, err keeps the first failure. Guarded by nd.mu.
type recovery struct {
	left int
	err  error
	done chan struct{}
}

// executed counts one of the recovery's executions as ended with err.
func (rc *recovery) executed(err error) {
	if rc.err == nil {
		rc.err = err
	}
	if rc.left--; rc.left == 0 {
		close(rc.done)
	}
}
