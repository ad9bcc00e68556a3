package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"recmem/internal/netsim"
	"recmem/internal/stable"
	"recmem/internal/tag"
)

// BenchmarkNamespaceReopen is the register-scale restart measurement, the
// one number bench/ cannot make yet (docs/adr/0014); `make bench-namespace`
// runs it with -benchtime 1x. Each iteration populates a fresh store with
// written/ records — a real register namespace, not opaque blobs — plus 25%
// overwrite churn, so a log-structured engine has dead versions to absorb,
// closes it, and measures two cold restarts:
//
//	load_ops/s      population + churn throughput through StoreBatch
//	reopen_ms       the engine alone: open until it serves Retrieves
//	probe_us        mean Retrieve after that reopen
//	node_reopen_ms  engine open + NewNode + Crash/Recover, what recmem-node
//	                does before its control port opens (docs/adr/0009)
//	disk_MB         bytes on disk after close
//
// Sampled registers are re-read after each restart and compared with what
// was stored — records at the storage level, RegisterState at the node
// level — so a row cannot look fast by dropping data.
func BenchmarkNamespaceReopen(b *testing.B) {
	sizes := []struct {
		name  string
		count int
	}{{"1k", 1000}, {"10k", 10000}, {"100k", 100000}, {"1M", 1000000}}
	for _, size := range sizes {
		b.Run(size.name, func(b *testing.B) {
			var sum nsResult
			for i := 0; i < b.N; i++ {
				r, err := measureNamespace(b.TempDir(), size.count)
				if err != nil {
					b.Fatal(err)
				}
				sum.loadOpsPerSec += r.loadOpsPerSec
				sum.reopenMS += r.reopenMS
				sum.probeUS += r.probeUS
				sum.nodeReopenMS += r.nodeReopenMS
				sum.diskMB += r.diskMB
			}
			n := float64(b.N)
			b.ReportMetric(sum.loadOpsPerSec/n, "load_ops/s")
			b.ReportMetric(sum.reopenMS/n, "reopen_ms")
			b.ReportMetric(sum.probeUS/n, "probe_us")
			b.ReportMetric(sum.nodeReopenMS/n, "node_reopen_ms")
			b.ReportMetric(sum.diskMB/n, "disk_MB")
		})
	}
}

// TestNamespaceReopenMeasures keeps the benchmark's measurement in tier-1 at
// a size that costs nothing: every figure taken, every probe verified.
func TestNamespaceReopenMeasures(t *testing.T) {
	r, err := measureNamespace(t.TempDir(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if r.loadOpsPerSec <= 0 || r.reopenMS <= 0 || r.probeUS <= 0 || r.nodeReopenMS <= 0 || r.diskMB <= 0 {
		t.Fatalf("figure not measured: %+v", r)
	}
}

const (
	nsValueBytes = 128
	nsBatch      = 32 // records per StoreBatch
)

type nsResult struct {
	loadOpsPerSec, reopenMS, probeUS, nodeReopenMS, diskMB float64
}

// nsValue fills val with the deterministic content of register i at the
// given version; the probes recompute it.
func nsValue(val []byte, i int, version byte) {
	binary.BigEndian.PutUint32(val, uint32(i))
	val[4] = version
	for j := 5; j < len(val); j++ {
		val[j] = byte(i+j) | 1
	}
}

// nsTag is the adoption tag a replica would have logged beside nsValue.
func nsTag(i int, version byte) tag.Tag {
	return tag.Tag{Seq: int64(version) + 1, Writer: int32(i % 3)}
}

func nsReg(i int) string { return fmt.Sprintf("r%07d", i) }

// nsVersion is the version register i holds after the load: the first
// quarter of the namespace was overwritten once.
func nsVersion(i, count int) byte {
	if i < count/4 {
		return 1
	}
	return 0
}

func measureNamespace(dir string, count int) (res nsResult, err error) {
	if res.loadOpsPerSec, err = nsPopulate(dir, count); err != nil {
		return res, err
	}
	res.diskMB = float64(dirBytes(dir)) / (1 << 20)
	if res.reopenMS, res.probeUS, err = nsReopenStore(dir, count); err != nil {
		return res, err
	}
	res.nodeReopenMS, err = measureNodeReopen(dir, count)
	return res, err
}

// nsPopulate fills a fresh store and closes it. The churn is a second load
// so every overwritten register's second version lands after its first.
func nsPopulate(dir string, count int) (opsPerSec float64, err error) {
	d, err := stable.OpenBackend("wal", dir, stable.Profile{})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err = nsLoad(d, count, 0); err == nil {
		err = nsLoad(d, count/4, 1)
	}
	elapsed := time.Since(start)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return float64(count+count/4) / elapsed.Seconds(), err
}

// nsReopenStore times the engine's cold open, then the mean of sampled
// Retrieves, each compared with the record that was stored.
func nsReopenStore(dir string, count int) (reopenMS, probeUS float64, err error) {
	start := time.Now()
	d, err := stable.OpenBackend("wal", dir, stable.Profile{})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close()
	reopenMS = float64(time.Since(start).Nanoseconds()) / 1e6

	probes := min(count, 512)
	want := make([]byte, nsValueBytes)
	start = time.Now()
	for p := 0; p < probes; p++ {
		i := p * (count / probes)
		name := WrittenRecordName(nsReg(i))
		data, ok, err := d.Retrieve(name)
		if err != nil || !ok {
			return 0, 0, fmt.Errorf("probe %s: ok=%v err=%v", name, ok, err)
		}
		version := nsVersion(i, count)
		nsValue(want, i, version)
		if !bytes.Equal(data, EncodeWrittenPayload(nsTag(i, version), want)) {
			return 0, 0, fmt.Errorf("probe %s: reopened store returned a different record than was stored", name)
		}
	}
	return reopenMS, float64(time.Since(start).Microseconds()) / float64(probes), nil
}

// measureNodeReopen times storage open + NewNode + Recover over the
// populated directory. One process keeps the measurement about recovery,
// not quorum traffic: persistent recovery runs rounds only for pending
// writes, and a cleanly closed store has none.
func measureNodeReopen(dir string, count int) (float64, error) {
	nw, err := netsim.New(1, netsim.Options{})
	if err != nil {
		return 0, err
	}
	defer nw.Close()

	start := time.Now()
	d, err := stable.OpenBackend("wal", dir, stable.Profile{})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	nd, err := NewNode(0, 1, Persistent, Options{},
		Deps{Endpoint: nw.Endpoint(0), Storage: d, IDs: &atomic.Uint64{}})
	if err != nil {
		return 0, err
	}
	defer nd.Close()
	nd.Crash(nil)
	if err := nd.Recover(context.Background(), nil, nil); err != nil {
		return 0, err
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6

	probes := min(count, 64)
	want := make([]byte, nsValueBytes)
	for p := 0; p < probes; p++ {
		i := p * (count / probes)
		version := nsVersion(i, count)
		nsValue(want, i, version)
		tg, val, ok := nd.RegisterState(nsReg(i))
		if !ok || tg != nsTag(i, version) || !bytes.Equal(val, want) {
			return 0, fmt.Errorf("node probe %s: recovered (%v, %d bytes, ok=%v), not what was stored", nsReg(i), tg, len(val), ok)
		}
	}
	return ms, nil
}

// nsLoad stores registers [0, count) at the given version, nsBatch records
// per StoreBatch, from a few concurrent workers: the engine's real caller
// is the node's dispatcher, whose in-flight rounds are what group commit
// coalesces.
func nsLoad(d stable.Storage, count int, version byte) error {
	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			val := make([]byte, nsValueBytes)
			recs := make([]stable.Record, 0, nsBatch)
			for from := w * nsBatch; from < count; from += workers * nsBatch {
				recs = recs[:0]
				for i := from; i < from+nsBatch && i < count; i++ {
					nsValue(val, i, version)
					recs = append(recs, stable.Record{
						Name: WrittenRecordName(nsReg(i)),
						Data: EncodeWrittenPayload(nsTag(i, version), val),
					})
				}
				if err := d.StoreBatch(recs); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if fi, err := e.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total
}
