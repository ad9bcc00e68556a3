package core

import (
	"context"
	"strings"

	"recmem/internal/stable"
	"recmem/internal/wire"
)

// runRecoveryProcedure executes the algorithm-specific part of recovery,
// after the volatile state has been restored from stable storage. The model
// places no bound on the messages or logs a recovery procedure may use.
func (nd *Node) runRecoveryProcedure(ctx context.Context, epoch uint64) error {
	// Every recovery — regardless of algorithm — first mints a fresh
	// incarnation epoch, so the epoch a client observes in replies strictly
	// increases across each of the node's deaths (docs/adr/0006).
	if err := nd.mintIncarnation(); err != nil {
		return err
	}
	switch nd.kind {
	case Persistent, Naive:
		return nd.finishPendingWrites(ctx, epoch)
	case Transient, RegularSW:
		return nd.bumpRecoveryCounter()
	default:
		return ErrCannotRecover
	}
}

// mintIncarnation persists and adopts the next incarnation epoch. It mints
// from the volatile counter — not the persisted record — so in-process
// crash/recover cycles (which never re-read storage) still advance it; the
// volatile counter is monotone across the node's whole lifetime (Crash never
// wipes it), so the persisted record is too. The adoption below is NOT gated
// on still being in stateRecovering: once stored, the epoch is burned, and a
// retried recovery must mint past it or a later boot could duplicate it.
// This store is harness bookkeeping, not one of the paper's causal logs, so
// it is not reported to the causal meter.
func (nd *Node) mintIncarnation() error {
	nd.mu.Lock()
	newInc := nd.inc + 1
	nd.mu.Unlock()
	if err := nd.st.Store(recIncarnation, encodeEpoch(newInc)); err != nil {
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
// (tag, value) reaches a majority. If the last write had in fact completed,
// this re-writes an old value with an old timestamp, which replaces nothing;
// if it had not, it completes the write before the process can invoke a new
// operation — which is what persistent atomicity requires. The paper notes
// this log sits outside read and write operations.
//
// The writing/ records are enumerated through the streaming scan, so the
// restart reads O(pending) names — a process has at most a handful of
// interrupted writes, however many registers it has adopted. The names are
// accumulated before any Retrieve: Scanner implementations stream under
// their internal locks, so the callback must not call back into the store.
func (nd *Node) finishPendingWrites(ctx context.Context, epoch uint64) error {
	var names []string
	if err := stable.ScanRecords(nd.st, recWritingPrefix, func(name string) error {
		names = append(names, name)
		return nil
	}); err != nil {
		return err
	}
	pending := 0
	for _, name := range names {
		data, ok, err := nd.st.Retrieve(name)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		t, v, err := decodeTagged(data)
		if err != nil {
			return err
		}
		pending++
		reg := strings.TrimPrefix(name, recWritingPrefix)
		op := nd.newID()
		if _, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{
			Kind: wire.KindWrite, Reg: reg, Tag: t, Value: v,
		}, broadcast); err != nil {
			return err
		}
	}
	nd.mu.Lock()
	nd.lastRecovery = RecoveryStats{PendingWrites: pending}
	nd.mu.Unlock()
	return nil
}

// bumpRecoveryCounter is Fig. 5's Recover (lines 16–22): increment the
// persisted recovery count. Subsequent writes add it to the queried sequence
// number, which keeps the writer's timestamps fresh without a pre-log on the
// write's critical path — the one extra log happens here, outside any
// operation.
func (nd *Node) bumpRecoveryCounter() error {
	op := nd.newID()
	newRec := nd.RecoveryCount() + 1
	payload := encodeCounter(newRec)
	if err := nd.st.Store(recRecovered, payload); err != nil {
		return err
	}
	nd.recordLog(op, 1, len(payload))
	nd.mu.Lock()
	if nd.state == stateRecovering {
		nd.rec = newRec
	}
	nd.lastRecovery = RecoveryStats{RecoveryCount: newRec}
	nd.mu.Unlock()
	return nil
}
