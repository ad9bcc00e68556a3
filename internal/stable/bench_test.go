package stable

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// Micro-benchmarks for the wal preset of the log engine, run by
// `make bench-disk`. The figure to read is syncs/op, the fsync bill per
// durable record:
//
//   - BenchmarkWALStore: a sequential caller gives group commit nothing to
//     coalesce — one append + one fdatasync per record, the paper's λ.
//   - BenchmarkWALStoreParallel: concurrent callers; the group-commit daemon
//     coalesces everything pending at sync time into one fdatasync.
//   - BenchmarkWALStoreBatch: the batched durability path (one coalesced
//     engine batch = one StoreBatch call), one sync per batch.
func benchPayload() []byte {
	p := make([]byte, 64)
	for i := range p {
		p[i] = byte(i)
	}
	return p
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
