package stable

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Micro-benchmarks for the storage engines, run by `make bench-disk`. The
// interesting comparison is per-durable-record cost:
//
//   - BenchmarkFileStore / BenchmarkWALStore: one record per sync on both
//     engines (a sequential caller gives group commit nothing to coalesce) —
//     isolates the append-a-frame vs. replace-a-file overhead.
//   - Benchmark*StoreParallel: concurrent callers; the wal preset's
//     group-commit daemon coalesces everything pending at sync time into one
//     fdatasync, FileDisk pays a full synchronous replacement each.
//   - Benchmark*StoreBatch: the batched durability path (one coalesced
//     engine batch = one StoreBatch call); the wal preset syncs once per
//     batch.
func benchPayload() []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = byte(i)
	}
	return p
}

func BenchmarkFileStore(b *testing.B) {
	d, err := NewFileDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	payload := benchPayload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Store("written/x", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALStore(b *testing.B) {
	d := mustOpen(b, b.TempDir(), walPreset)
	defer d.Close()
	payload := benchPayload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Store("written/x", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Syncs())/float64(b.N), "syncs/op")
}

func BenchmarkFileStoreParallel(b *testing.B) {
	d, err := NewFileDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	payload := benchPayload()
	var reg atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("written/r%d", reg.Add(1))
		for pb.Next() {
			if err := d.Store(name, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkWALStoreParallel(b *testing.B) {
	d := mustOpen(b, b.TempDir(), walPreset)
	defer d.Close()
	payload := benchPayload()
	var reg atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("written/r%d", reg.Add(1))
		for pb.Next() {
			if err := d.Store(name, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if b.N > 0 {
		b.ReportMetric(float64(d.Syncs())/float64(b.N), "syncs/op")
	}
}

// benchBatch is one coalesced engine batch: the adoption logs a node
// persists for one delivered batch frame.
func benchBatch() []Record {
	recs := make([]Record, 16)
	for i := range recs {
		recs[i] = Record{Name: fmt.Sprintf("written/r%d", i), Data: benchPayload()}
	}
	return recs
}

func BenchmarkFileStoreBatch(b *testing.B) {
	d, err := NewFileDisk(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	recs := benchBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.StoreBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALStoreBatch(b *testing.B) {
	d := mustOpen(b, b.TempDir(), walPreset)
	defer d.Close()
	recs := benchBatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.StoreBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Syncs())/float64(b.N), "syncs/op")
}
