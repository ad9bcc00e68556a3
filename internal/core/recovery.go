package core

import (
	"context"
	"strings"

	"recmem/internal/stable"
	"recmem/internal/wire"
)

// runRecoveryProcedure executes the algorithm-specific part of recovery,
// after the volatile state has been restored from stable storage, and returns
// what it found for Recover to publish once the recovery has succeeded. What
// it does is decided by what the write leaves behind (docs/adr/0025): a row
// with the writer pre-log finishes the pending writes (Fig. 4), every other
// durable row mints with the recovery count and bumps it (Fig. 5). The
// model places no bound on the messages or logs a recovery procedure may use.
// Its records go through the node's logger like every store, under the
// recovery's epoch: queued behind whatever the logger holds, and dropped by a
// crash like any pre-log.
func (nd *Node) runRecoveryProcedure(ctx context.Context, epoch uint64) (RecoveryStats, error) {
	// Every recovery — regardless of algorithm — first mints a fresh
	// incarnation epoch, so the epoch a client observes in replies strictly
	// increases across each of the node's deaths (docs/adr/0006).
	if err := nd.mintIncarnation(epoch); err != nil {
		return RecoveryStats{}, err
	}
	if nd.proto.preLog {
		pending, err := nd.finishPendingWrites(ctx, epoch)
		return RecoveryStats{PendingWrites: pending}, err
	}
	rec, err := nd.bumpRecoveryCounter(epoch)
	return RecoveryStats{RecoveryCount: rec}, err
}

// mintIncarnation persists and adopts the next incarnation epoch. It mints
// from the volatile counter — not the persisted record — so in-process
// crash/recover cycles (which never re-read storage) still advance it; the
// volatile counter is monotone across the node's whole lifetime (Crash never
// wipes it), so the persisted record is too. The adoption below is NOT gated
// on still being in stateRecovering: once stored, the epoch is burned, and a
// retried recovery must mint past it or a later boot could duplicate it. A
// record a crash dropped from the logger's queue was never stored, so that
// epoch is not used up. This store is harness bookkeeping, not one of the
// paper's causal logs, so it is logged under op 0 and not reported to the
// causal meter.
func (nd *Node) mintIncarnation(epoch uint64) error {
	nd.mu.Lock()
	newInc := nd.inc + 1
	nd.mu.Unlock()
	var w preLog
	if err := nd.storeLog(&w, epoch, 0, 0, recIncarnation, encodeEpoch(newInc)); err != nil {
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
// (tag, value) reaches a majority; it returns how many it re-ran. If the last write had in fact completed,
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
func (nd *Node) finishPendingWrites(ctx context.Context, epoch uint64) (int, error) {
	var names []string
	if err := stable.ScanRecords(nd.st, recWritingPrefix, func(name string) error {
		names = append(names, name)
		return nil
	}); err != nil {
		return 0, err
	}
	pending := 0
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
		pending++
		reg := strings.TrimPrefix(name, recWritingPrefix)
		op := nd.newID()
		if _, err := nd.runRoundOpts(ctx, op, epoch, wire.Envelope{
			Kind: wire.KindWrite, Reg: reg, Tag: t, Value: v,
		}, broadcast); err != nil {
			return 0, err
		}
	}
	return pending, nil
}

// bumpRecoveryCounter is Fig. 5's Recover (lines 16–22): increment the
// persisted recovery count, which it returns. Subsequent writes add it to the
// queried sequence number, which keeps the writer's timestamps fresh without
// a pre-log on the write's critical path — the one extra log happens here,
// outside any operation. Recover adopts the count once the recovery has
// succeeded.
func (nd *Node) bumpRecoveryCounter(epoch uint64) (int32, error) {
	newRec := nd.RecoveryCount() + 1
	var w preLog
	if err := nd.storeLog(&w, epoch, nd.newID(), 1, recRecovered, encodeCounter(newRec)); err != nil {
		return 0, err
	}
	return newRec, nil
}
