// Package workload generates and drives client workloads against a cluster:
// closed-loop clients (one per process, operations back to back, as in the
// paper's measurements of fifty consecutive writes), configurable read/write
// mixes over one or more registers, and payload sizing for the Fig. 6
// experiments. Written values are globally unique, which gives the atomicity
// checkers maximal discriminating power.
package workload

import (
	"context"
	"fmt"
	"strings"

	"recmem/internal/cluster"
)

// Mix describes the operation mix of a workload.
type Mix struct {
	// ReadFraction is the probability in [0,1] that an operation is a read.
	ReadFraction float64
	// Registers is the set of register names operated on (default ["x"]).
	Registers []string
	// ValueSize pads written values to this many bytes (0 = unpadded short
	// strings, like the paper's 4-byte integers).
	ValueSize int
	// Async, when at least 2, drives each client through the asynchronous
	// submission API (Cluster.SubmitWrite/SubmitRead) with up to Async
	// operations in flight, engaging the batching + pipelining engine:
	// concurrent operations on one register coalesce into shared quorum
	// rounds and different registers' rounds overlap. 0 or 1 keeps the
	// paper's closed-loop sequential clients.
	Async int
	// Forgive, if non-nil, classifies matching operation errors as
	// Interrupted instead of Errors. Torture runs with storage fault
	// injection use it for stable.ErrInjected: a writer whose own log fails
	// aborts its operation — an expected casualty, not a protocol failure.
	// The model has no aborted operations, so the sequential client then
	// crashes and recovers the process: a process that cannot log abandons
	// its operation only by crashing, which keeps the recorded history
	// well-formed (the pending invocation is followed by a crash event).
	Forgive func(error) bool
}

// Result summarizes a driven workload.
type Result struct {
	// Writes and Reads count completed operations.
	Writes, Reads int
	// Interrupted counts operations that failed with ErrCrashed or ErrDown
	// (their invocations may stay pending in the history).
	Interrupted int
	// Errors counts unexpected failures.
	Errors int
}

// Run drives opsPerProc operations at each listed process, one sequential
// client per process (the paper's processes are sequential). It tolerates
// crash interruptions — the natural situation under fault injection — and
// returns aggregate counts. Run stops early when ctx is done.
//
// Run is the cluster-specific entry point; it adapts the processes to
// recmem.Client (see Clients) and delegates to the backend-agnostic
// RunClients, so the driven scenario is byte-for-byte the one a live TCP
// mesh gets.
func Run(ctx context.Context, c *cluster.Cluster, procs []int32, opsPerProc int, mix Mix, seed int64) Result {
	return RunClients(ctx, Clients(c, procs), opsPerProc, mix, seed)
}

// UniqueValue builds a globally unique value for process proc's i-th write,
// padded to size bytes when size exceeds the identifying prefix.
func UniqueValue(proc int32, i, size int) string {
	v := fmt.Sprintf("p%d-%d", proc, i)
	if size > len(v) {
		v += strings.Repeat(".", size-len(v))
	}
	return v
}

// AllProcs returns [0, 1, ..., n-1], a convenience for driving every
// process.
func AllProcs(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
