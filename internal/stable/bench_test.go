package stable

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the wal preset of the log engine, run by
// `make bench-disk`. The figure to read is syncs/op, the fsync bill per
// durable record:
//
//   - BenchmarkWALStore: one append + one fdatasync per record, the paper's
//     λ. The engine commits on its caller's goroutine and never gathers
//     concurrent callers (docs/adr/0019), so a parallel variant would only
//     measure them queueing on the shard's commit mutex.
//   - BenchmarkWALStoreBatch: the batched durability path (one coalesced
//     engine batch = one StoreBatch call), one sync per batch — how a node's
//     logger group-commits.
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
