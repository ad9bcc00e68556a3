package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"recmem/internal/netsim"
)

// The benchmark pair behind the Register-handle redesign: every Node-level
// operation resolves its register by name — a maphash + map lookup under the
// batching engine's shard lock, which guards only the map (queueFor) — while
// a RegisterRef resolved the queue pointer once at creation. The pair
// measures exactly that per-operation resolution work
// over a realistic register population, isolated from the protocol rounds
// (which are identical on both paths).

const benchRegisters = 4096

func benchNode(b *testing.B) (*Node, []string) {
	b.Helper()
	nw, err := netsim.New(1, netsim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(nw.Close)
	nd, err := NewNode(0, 1, CrashStop, Options{},
		Deps{Endpoint: nw.Endpoint(0), IDs: &atomic.Uint64{}})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(nd.Close)
	regs := make([]string, benchRegisters)
	for i := range regs {
		regs[i] = fmt.Sprintf("register-%04d", i)
		// Populate the queue map, as a warmed-up node would be.
		nd.RegisterRef(regs[i])
	}
	return nd, regs
}

// BenchmarkStringLookup is the per-operation dispatch resolution of the
// Node-level string API: a locked map lookup on every operation.
func BenchmarkStringLookup(b *testing.B) {
	nd, regs := benchNode(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := regs[i%benchRegisters]
		if nd.RegisterRef(reg) == nil {
			b.Fatal("lost a register")
		}
	}
}

// BenchmarkRegisterHandle is the same dispatch with the resolution cached
// in a RegisterRef: the hot path touches only pointer-stable fields.
func BenchmarkRegisterHandle(b *testing.B) {
	nd, regs := benchNode(b)
	refs := make([]*RegisterRef, benchRegisters)
	for i, reg := range regs {
		refs[i] = nd.RegisterRef(reg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := refs[i%benchRegisters]
		if r.nd == nil {
			b.Fatal("lost a register")
		}
	}
}
