package core

import (
	"context"
	"strings"

	"recmem/internal/stable"
)

// runRecoveryProcedure executes the algorithm-specific part of recovery,
// after the volatile state has been restored from stable storage, and returns
// what it found for Recover to publish once the recovery has succeeded. A row
// with the writer pre-log finishes the pending writes (Fig. 4), every other
// durable row bumps the recovery count it mints with (Fig. 5, docs/adr/0025);
// the model bounds neither's messages or logs. Each step is a set of
// executions (docs/adr/0026) under the recovery's epoch: their records queue
// on the node's logger like every store, and a crash ends them like any other.
func (nd *Node) runRecoveryProcedure(ctx context.Context, epoch uint64) (RecoveryStats, error) {
	// Every recovery — regardless of algorithm — first mints a fresh
	// incarnation epoch, so the epoch a client observes in replies strictly
	// increases across each of the node's deaths (docs/adr/0006).
	if err := nd.mintIncarnation(ctx, epoch); err != nil {
		return RecoveryStats{}, err
	}
	if nd.proto.preLog {
		pending, err := nd.finishPendingWrites(ctx, epoch)
		return RecoveryStats{PendingWrites: pending}, err
	}
	rec, err := nd.bumpRecoveryCounter(ctx, epoch)
	return RecoveryStats{RecoveryCount: rec}, err
}

// runExecs starts n executions under epoch, the i-th set up by start(x, i),
// and waits until all have ended, epoch has ended or ctx ends.
func (nd *Node) runExecs(ctx context.Context, epoch uint64, n int, start func(x *execution, i int)) error {
	if n == 0 {
		return nil
	}
	rc := &recovery{left: n, done: make(chan struct{})}
	var done []completion
	nd.mu.Lock()
	if nd.epoch != epoch || !nd.servingLocked() {
		err := nd.downErrLocked()
		nd.mu.Unlock()
		return err
	}
	for i := range n {
		x := nd.getExec()
		x.rc = rc
		start(x, i)
		nd.launch(x, &done)
	}
	nd.mu.Unlock()
	fire(done)
	select {
	case <-rc.done:
		return rc.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// mintIncarnation persists and adopts the next incarnation epoch, minted from
// the volatile counter, which Crash never wipes, so in-process cycles advance
// it too. The adoption is NOT gated on still recovering: a stored epoch is
// burned, and a retried recovery must mint past it; a record a crash dropped
// from the logger's queue was never stored and burns nothing. It is harness
// bookkeeping, not a causal log, so it is logged under op 0.
func (nd *Node) mintIncarnation(ctx context.Context, epoch uint64) error {
	nd.mu.Lock()
	newInc := nd.inc + 1
	nd.mu.Unlock()
	if err := nd.runExecs(ctx, epoch, 1, func(x *execution, _ int) {
		x.start(&nd.proc, execRecord, nd.newID(), 0, epoch, "")
		x.pre = preLog{rec: stable.Record{Name: recIncarnation, Data: encodeEpoch(newInc)}}
	}); err != nil {
		return err
	}
	nd.mu.Lock()
	if newInc > nd.inc {
		nd.inc = newInc
	}
	nd.mu.Unlock()
	return nil
}

// finishPendingWrites is Fig. 4's Recover (lines 40–47): for every register
// with a "writing" record, re-run the write's second round so the recorded
// (tag, value) reaches a majority; it returns how many it re-ran. A write that
// had completed is re-written under its old tag and replaces nothing; one that
// had not completes before the process can invoke a new operation, which is
// what persistent atomicity requires. The rounds run at once, one
// propagate-only execution per record.
//
// The streaming scan reads O(pending) names, however many registers the node
// adopted. The names are gathered before any Retrieve: a Scanner streams
// under its internal locks, so the callback must not call back into the store.
func (nd *Node) finishPendingWrites(ctx context.Context, epoch uint64) (int, error) {
	var names []string
	if err := stable.ScanRecords(nd.st, recWritingPrefix, func(name string) error {
		names = append(names, name)
		return nil
	}); err != nil {
		return 0, err
	}
	var regs []string
	var writes []regState
	for _, name := range names {
		data, ok, err := nd.st.Retrieve(name)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		t, v, err := decodeTagged(data)
		if err != nil {
			return 0, err
		}
		regs, writes = append(regs, strings.TrimPrefix(name, recWritingPrefix)), append(writes, regState{tag: t, val: v})
	}
	err := nd.runExecs(ctx, epoch, len(regs), func(x *execution, i int) {
		x.start(&nd.proc, execFinish, nd.newID(), nd.newID(), epoch, regs[i])
		x.tag, x.val = writes[i].tag, writes[i].val
	})
	if err != nil {
		return 0, err
	}
	return len(regs), nil
}

// bumpRecoveryCounter is Fig. 5's Recover (lines 16–22): persist and return
// the incremented recovery count, which later writes add to the queried
// sequence number instead of a pre-log. Recover adopts it on success.
func (nd *Node) bumpRecoveryCounter(ctx context.Context, epoch uint64) (int32, error) {
	newRec := nd.RecoveryCount() + 1
	if err := nd.runExecs(ctx, epoch, 1, func(x *execution, _ int) {
		x.start(&nd.proc, execRecord, nd.newID(), 0, epoch, "")
		x.pre = preLog{rec: stable.Record{Name: recRecovered, Data: encodeCounter(newRec)}, op: nd.newID(), depth: 1}
	}); err != nil {
		return 0, err
	}
	return newRec, nil
}
