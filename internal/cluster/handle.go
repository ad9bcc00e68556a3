package cluster

import (
	"context"
	"time"

	"recmem/internal/core"
	"recmem/internal/history"
	"recmem/internal/tag"
)

// Handle is a cached (process, register) operation handle: the core-level
// RegisterRef resolution (engine shard, submission queue)
// happens once at creation, and every operation through the handle records
// history and latency exactly like the Cluster-level methods. The public
// recmem.Register and the workload drivers are built on it.
type Handle struct {
	c    *Cluster
	proc int32
	reg  string
	ref  *core.RegisterRef
}

// Handle resolves a cached operation handle for (proc, reg).
func (c *Cluster) Handle(proc int32, reg string) *Handle {
	return &Handle{c: c, proc: proc, reg: reg, ref: c.nodes[proc].RegisterRef(reg)}
}

// Register returns the register name.
func (h *Handle) Register() string { return h.reg }

// Proc returns the process id the handle operates at.
func (h *Handle) Proc() int32 { return h.proc }

// writeObs builds the history observer of a synchronous write at proc. The
// recorded reply carries the operation's tag witness, so simulated
// histories are witness-complete exactly like merged live-mesh ones.
func (c *Cluster) writeObs(proc int32, reg string, val []byte) core.OpObserver {
	return core.OpObserver{
		OnInvoke: func(op uint64) { c.rec.InvokeWithID(proc, history.Write, op, reg, string(val)) },
		OnReturn: func(op uint64, _ []byte, wit tag.Tag) {
			c.rec.ReturnTagged(proc, history.Write, op, reg, "", wit)
		},
	}
}

// readObs builds the history observer of a synchronous read at proc.
func (c *Cluster) readObs(proc int32, reg string) core.OpObserver {
	return core.OpObserver{
		OnInvoke: func(op uint64) { c.rec.InvokeWithID(proc, history.Read, op, reg, "") },
		OnReturn: func(op uint64, v []byte, wit tag.Tag) {
			c.rec.ReturnTagged(proc, history.Read, op, reg, string(v), wit)
		},
	}
}

// Write invokes the write operation through the handle; semantics and
// recording match Cluster.Write.
func (h *Handle) Write(ctx context.Context, val []byte) (Report, error) {
	start := time.Now()
	op, wit, inc, err := h.ref.Write(ctx, val, h.c.writeObs(h.proc, h.reg, val))
	if err != nil {
		return Report{Op: op}, err
	}
	lat := time.Since(start)
	h.c.writeLat.Add(lat)
	return Report{Op: op, Latency: lat, Tag: wit, Epoch: inc}, nil
}

// Read invokes the read operation through the handle with the given
// read-consistency mode (core.ReadDefault for the algorithm's native read);
// semantics and recording match Cluster.Read.
func (h *Handle) Read(ctx context.Context, mode core.ReadMode) ([]byte, Report, error) {
	start := time.Now()
	val, op, wit, inc, err := h.ref.Read(ctx, mode, h.c.readObs(h.proc, h.reg))
	if err != nil {
		return nil, Report{Op: op}, err
	}
	lat := time.Since(start)
	h.c.readLat.Add(lat)
	return val, Report{Op: op, Latency: lat, Tag: wit, Epoch: inc}, nil
}

// SubmitWrite asynchronously writes through the handle's cached queue;
// history attribution matches Cluster.SubmitWrite (one-shot virtual client).
func (h *Handle) SubmitWrite(val []byte) (*core.Future, error) {
	vp := h.c.vproc.Add(1) - 1
	return h.ref.SubmitWrite(val, h.c.writeObs(vp, h.reg, val))
}

// SubmitRead asynchronously reads through the handle's cached queue;
// history attribution matches Cluster.SubmitRead.
func (h *Handle) SubmitRead(mode core.ReadMode) (*core.Future, error) {
	vp := h.c.vproc.Add(1) - 1
	return h.ref.SubmitRead(mode, h.c.readObs(vp, h.reg))
}
