package stable

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shrunk is the base tuning for tests that need seals and compactions after
// a handful of stores: the preset's shape with tiny segments and no
// close-time compaction unless a test opts in.
func shrunk(preset engineConfig) engineConfig {
	preset.segmentBytes, preset.compactBytes, preset.closeCompactBytes = 256, 512, 0
	return preset
}

// shardedTestConfig is shrunk(shardedPreset) on two shards.
func shardedTestConfig() engineConfig {
	cfg := shrunk(shardedPreset)
	cfg.shards = 2
	return cfg
}

// forBothPresets runs fn once per backend name, on the shrunk preset.
func forBothPresets(t *testing.T, fn func(t *testing.T, cfg engineConfig)) {
	t.Run("wal", func(t *testing.T) { fn(t, shrunk(walPreset)) })
	t.Run("sharded", func(t *testing.T) { fn(t, shardedTestConfig()) })
}

func mustOpen(t testing.TB, dir string, cfg engineConfig) *ShardedDisk {
	t.Helper()
	d, err := openEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The wal rows run on the production preset: one shard, real thresholds.
func TestWALSurvivesReopen(t *testing.T)     { testSurvivesReopen(t, walPreset) }
func TestShardedSurvivesReopen(t *testing.T) { testSurvivesReopen(t, shardedTestConfig()) }

// testSurvivesReopen: everything acknowledged is there after a reopen, and
// the reopen itself reads no value — only the first Retrieve does.
func testSurvivesReopen(t *testing.T, cfg engineConfig) {
	dir := t.TempDir()
	d := mustOpen(t, dir, cfg)
	want := map[string][]byte{"written/reg with spaces/☃": []byte("v")}
	for i := 0; i < 40; i++ {
		want[fmt.Sprintf("written/r%02d", i)] = []byte(fmt.Sprintf("value-%d", i))
	}
	for name, val := range want {
		if err := d.Store(name, []byte("overwritten")); err != nil {
			t.Fatal(err)
		}
		if err := d.StoreBatch([]Record{{Name: name, Data: val}, {Name: "incarnation", Data: []byte{9}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	if n := d2.ResidentValues(); n != 0 {
		t.Fatalf("reopen loaded %d values; it must read the index and the segment tail only", n)
	}
	for name, val := range want {
		data, ok, err := d2.Retrieve(name)
		if err != nil || !ok || !bytes.Equal(data, val) {
			t.Fatalf("%s after reopen = %q ok=%v err=%v, want %q", name, data, ok, err, val)
		}
	}
	names, err := d2.Records("written/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("Records found %d names, want %d", len(names), len(want))
	}
}

// TestShardedManifestPinsShardCount: the shard count chosen at creation is
// persisted, so a reopen under a different configured count still hashes
// every record onto the shard that holds it.
func TestShardedManifestPinsShardCount(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, shardedTestConfig())
	for i := 0; i < 10; i++ {
		if err := d.Store(fmt.Sprintf("written/r%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, shardedPreset)
	defer d2.Close()
	if d2.Shards() != 2 {
		t.Fatalf("reopen has %d shards, want the persisted 2", d2.Shards())
	}
	for i := 0; i < 10; i++ {
		data, ok, err := d2.Retrieve(fmt.Sprintf("written/r%d", i))
		if err != nil || !ok || data[0] != byte(i) {
			t.Fatalf("r%d = %v ok=%v err=%v", i, data, ok, err)
		}
	}
}

// storeUntilCompacted drives stores until at least one background compaction
// completes, returning the last value written per name.
func storeUntilCompacted(t *testing.T, d *ShardedDisk, names int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; d.Compactions() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no compaction despite passing the sealed-size threshold")
		}
		name := fmt.Sprintf("written/r%02d", i%names)
		val := append([]byte(fmt.Sprintf("v%d-", i)), bytes.Repeat([]byte("x"), 48)...)
		if err := d.Store(name, val); err != nil {
			t.Fatal(err)
		}
		want[name] = val
	}
	return want
}

// TestShardedCompactionConcurrentWithServing: compaction merges sealed
// segments into the snapshot while stores and retrieves keep running, no
// acknowledged value is lost or aged backwards, and the segments it consumed
// are gone from the disk — the log does not grow with history.
func TestShardedCompactionConcurrentWithServing(t *testing.T) {
	forBothPresets(t, func(t *testing.T, cfg engineConfig) {
		dir := t.TempDir()
		d := mustOpen(t, dir, cfg)
		defer d.Close()

		stop := make(chan struct{})
		var readerErr atomic.Value
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := d.Retrieve("written/r00"); err != nil {
					readerErr.Store(err)
					return
				}
			}
		}()
		want := storeUntilCompacted(t, d, 16)
		close(stop)
		if err, _ := readerErr.Load().(error); err != nil {
			t.Fatalf("concurrent retrieve failed: %v", err)
		}
		for name, val := range want {
			data, ok, err := d.Retrieve(name)
			if err != nil || !ok || !bytes.Equal(data, val) {
				t.Fatalf("%s after compaction = %q ok=%v err=%v, want %q", name, data, ok, err, val)
			}
		}
		names, err := d.Records("written/")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(want) {
			t.Fatalf("Records found %d names, want %d", len(names), len(want))
		}
		for _, sh := range d.shards {
			sh.mu.Lock()
			wm := sh.watermark
			sh.mu.Unlock()
			if wm == 0 {
				continue // this shard has not compacted yet
			}
			if _, err := os.Stat(filepath.Join(sh.dir, shardSnap)); err != nil {
				t.Fatalf("compacted shard has no snapshot: %v", err)
			}
			for id := uint64(1); id <= wm; id++ {
				if _, err := os.Stat(sh.segPath(id)); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("segment %d survived the compaction that covers it: %v", id, err)
				}
			}
		}
	})
}

// TestShardedCloseCompaction: a clean Close folds segments into the
// snapshot, so the reopened store serves from the index with empty segment
// chains — recovery does not replay values.
func TestShardedCloseCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := shardedTestConfig()
	cfg.closeCompactBytes = 1
	d := mustOpen(t, dir, cfg)
	want := make(map[string][]byte)
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("written/r%02d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := d.Store(name, val); err != nil {
			t.Fatal(err)
		}
		want[name] = val
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
			t.Fatalf("segment %s survived close-compaction with %d bytes", seg, fi.Size())
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*", shardSnap))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no shard snapshots written: %v %v", snaps, err)
	}

	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	for name, val := range want {
		data, ok, err := d2.Retrieve(name)
		if err != nil || !ok || !bytes.Equal(data, val) {
			t.Fatalf("%s from snapshot = %q ok=%v err=%v, want %q", name, data, ok, err, val)
		}
	}
}

func TestShardedDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	compacting := shardedTestConfig()
	compacting.closeCompactBytes = 1

	d := mustOpen(t, dir, compacting)
	for _, name := range []string{"written/a", "written/b", "written/c"} {
		if err := d.Store(name, []byte("v-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	// Close compacts, so "written/b" is base (snapshot) state on reopen: the
	// delete below exercises a tombstone shadowing the base index.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, dir, shardedTestConfig())
	if err := d.Delete("written/b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("written/never-stored"); err != nil {
		t.Fatalf("delete of absent record: %v", err)
	}
	if d.Tombstones() != 2 {
		t.Fatalf("Tombstones = %d, want 2", d.Tombstones())
	}
	if _, ok, err := d.Retrieve("written/b"); err != nil || ok {
		t.Fatalf("deleted record still retrievable: ok=%v err=%v", ok, err)
	}
	names, err := d.Records("written/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "written/a" || names[1] != "written/c" {
		t.Fatalf("Records after delete = %v", names)
	}
	// Close without compaction: the tombstone itself must replay.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, dir, compacting)
	if _, ok, _ := d.Retrieve("written/b"); ok {
		t.Fatal("deleted record resurrected by replay")
	}
	// Re-creating a deleted register works, and survives a compacting close.
	if err := d.Store("written/b", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, dir, shardedTestConfig())
	defer d.Close()
	data, ok, err := d.Retrieve("written/b")
	if err != nil || !ok || string(data) != "reborn" {
		t.Fatalf("re-created record = %q ok=%v err=%v", data, ok, err)
	}
}

func TestShardedEvictionColdLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := shardedTestConfig()
	cfg.residentRecords = 8
	cfg.closeCompactBytes = 1
	d := mustOpen(t, dir, cfg)
	want := make(map[string][]byte)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("written/r%02d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if err := d.Store(name, val); err != nil {
			t.Fatal(err)
		}
		want[name] = val
	}
	if got, max := d.ResidentValues(), 8*d.Shards(); got > max {
		t.Fatalf("%d resident values, want at most %d", got, max)
	}
	if d.Evictions() == 0 {
		t.Fatal("no evictions despite exceeding residentRecords")
	}
	// Every evicted value cold-loads from its segment frame.
	for name, val := range want {
		data, ok, err := d.Retrieve(name)
		if err != nil || !ok || !bytes.Equal(data, val) {
			t.Fatalf("cold %s = %q ok=%v err=%v, want %q", name, data, ok, err, val)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// After a compacting close, cold loads come from the snapshot instead.
	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	for name, val := range want {
		data, ok, err := d2.Retrieve(name)
		if err != nil || !ok || !bytes.Equal(data, val) {
			t.Fatalf("snapshot cold %s = %q ok=%v err=%v, want %q", name, data, ok, err, val)
		}
	}
	if got, max := d2.ResidentValues(), 8*d2.Shards(); got > max {
		t.Fatalf("%d resident values after reopen, want at most %d", got, max)
	}
}

// TestShardedCrashDuringCompaction: a crash between any two steps of a
// compaction — temp snapshot written, renamed over the old one, consumed
// segments partially deleted — must reopen to exactly the acknowledged
// state, on either preset. The hook abandons the compaction mid-flight,
// leaving the files a SIGKILL at that instant would leave.
func TestShardedCrashDuringCompaction(t *testing.T) {
	for _, stage := range []string{"written", "renamed", "deleted"} {
		t.Run(stage, func(t *testing.T) {
			forBothPresets(t, func(t *testing.T, cfg engineConfig) {
				dir := t.TempDir()
				d := mustOpen(t, dir, cfg)
				fired := make(chan struct{}, 1)
				d.compactHook = func(_ int, s string) bool {
					if s == stage {
						select {
						case fired <- struct{}{}:
						default:
						}
						return false
					}
					return true
				}
				want := make(map[string][]byte)
				deadline := time.Now().Add(10 * time.Second)
				i := 0
			drive:
				for {
					name := fmt.Sprintf("written/r%02d", i%16)
					val := append([]byte(fmt.Sprintf("v%d-", i)), bytes.Repeat([]byte("x"), 48)...)
					if err := d.Store(name, val); err != nil {
						t.Fatal(err)
					}
					want[name] = val
					i++
					select {
					case <-fired:
						break drive
					default:
					}
					if time.Now().After(deadline) {
						t.Fatal("compaction never reached the crash stage")
					}
				}
				// A few more acknowledged stores land after the "crash".
				for j := 0; j < 4; j++ {
					name := fmt.Sprintf("written/after%d", j)
					val := []byte(fmt.Sprintf("post-crash-%d", j))
					if err := d.Store(name, val); err != nil {
						t.Fatal(err)
					}
					want[name] = val
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}

				d2, err := openEngine(dir, cfg)
				if err != nil {
					t.Fatalf("reopen after crash at %q: %v", stage, err)
				}
				defer d2.Close()
				for name, val := range want {
					data, ok, err := d2.Retrieve(name)
					if err != nil || !ok || !bytes.Equal(data, val) {
						t.Fatalf("%s after crash at %q = %q ok=%v err=%v, want %q", name, stage, data, ok, err, val)
					}
				}
				names, err := d2.Records("")
				if err != nil {
					t.Fatal(err)
				}
				if len(names) != len(want) {
					t.Fatalf("store holds %d records after crash at %q, want %d", len(names), stage, len(want))
				}
			})
		})
	}
}

// highestSegments returns each shard's highest-numbered segment: the only
// one that can end in an unacknowledged group.
func highestSegments(t *testing.T, dir string) []string {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sh := range shards {
		segs, err := filepath.Glob(filepath.Join(sh, "seg-*.wal"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("shard %s has no segments: %v", sh, err)
		}
		out = append(out, segs[len(segs)-1]) // Glob sorts; ids are zero-padded
	}
	return out
}

func appendTo(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestWALTornTailTruncated(t *testing.T)    { testTornTail(t, walPreset) }
func TestShardedTornTailPerShard(t *testing.T) { testTornTail(t, shardedTestConfig()) }

// testTornTail: garbage after the last acknowledged frame of a shard's
// highest segment — the classic torn write of a crash mid-group-commit — is
// cut off at open, shard by shard; everything acknowledged before it
// survives, nothing in it is replayed, and the log accepts appends again.
func testTornTail(t *testing.T, cfg engineConfig) {
	badCRC := appendFrame(nil, kindSet, "written/evil", []byte("zz"))
	badCRC[len(badCRC)-1] ^= 0xff
	for name, torn := range map[string][]byte{
		"short-header":  {0x00, 0x00},
		"short-payload": {0x00, 0x00, 0x40, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},
		"bad-crc":       badCRC,
		"absurd-length": {0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, cfg)
			want := make(map[string][]byte)
			for i := 0; i < 16; i++ {
				name := fmt.Sprintf("written/r%02d", i)
				want[name] = []byte(fmt.Sprintf("value-%d", i))
				if err := d.Store(name, want[name]); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for _, seg := range highestSegments(t, dir) {
				appendTo(t, seg, torn)
			}

			d2, err := openEngine(dir, cfg)
			if err != nil {
				t.Fatalf("open over torn tails: %v", err)
			}
			for name, val := range want {
				data, ok, err := d2.Retrieve(name)
				if err != nil || !ok || !bytes.Equal(data, val) {
					t.Fatalf("%s after torn tail = %q ok=%v err=%v, want %q", name, data, ok, err, val)
				}
			}
			if _, ok, _ := d2.Retrieve("written/evil"); ok {
				t.Fatal("torn frame was replayed")
			}
			// The shard accepts appends again past the cutoff, and they last.
			if err := d2.Store("written/r00", []byte("fresh")); err != nil {
				t.Fatalf("store after torn-tail cutoff: %v", err)
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3 := mustOpen(t, dir, cfg)
			defer d3.Close()
			if data, ok, _ := d3.Retrieve("written/r00"); !ok || string(data) != "fresh" {
				t.Fatalf("append after the cutoff lost: %q ok=%v", data, ok)
			}
		})
	}
}

// TestSealedSegmentCorruptFailsOpen: only the highest segment can hold an
// unacknowledged group, so a malformed frame in any other segment is not a
// torn tail. Cutting it off would silently drop the acknowledged records
// behind it; the open must fail instead, like a bad snapshot.
func TestSealedSegmentCorruptFailsOpen(t *testing.T) {
	forBothPresets(t, func(t *testing.T, cfg engineConfig) {
		cfg.compactBytes = 1 << 30 // keep the sealed chain on disk
		dir := t.TempDir()
		d := mustOpen(t, dir, cfg)
		for i := 0; i < 64; i++ {
			if err := d.Store(fmt.Sprintf("written/r%02d", i), bytes.Repeat([]byte{byte(i)}, 48)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		sealed := filepath.Join(dir, "shard-0000", "seg-00000001.wal")
		log, err := os.ReadFile(sealed)
		if err != nil || len(log) < 256 {
			t.Fatalf("first segment was not sealed at the threshold: %d bytes, %v", len(log), err)
		}
		log[len(log)/2] ^= 0x01
		if err := os.WriteFile(sealed, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if d2, err := openEngine(dir, cfg); !errors.Is(err, errCorrupt) {
			if err == nil {
				d2.Close()
			}
			t.Fatalf("open over a bit-flipped sealed segment = %v, want errCorrupt", err)
		}
		if after, _ := os.ReadFile(sealed); !bytes.Equal(after, log) {
			t.Fatal("the failed open modified the sealed segment")
		}
	})
}

// TestWALRejectsCorruptSnapshot: snapshots are written in full and renamed
// atomically, so any damage to the footer or the index it points at is real
// corruption and must fail the open instead of silently dropping state.
func TestWALRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := shrunk(walPreset)
	cfg.closeCompactBytes = 1
	d := mustOpen(t, dir, cfg)
	for i := 0; i < 8; i++ {
		if err := d.Store(fmt.Sprintf("written/r%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "shard-0000", shardSnap)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("close-compaction wrote no snapshot: %v", err)
	}
	flip := func(i int) []byte {
		b := bytes.Clone(snap)
		b[i] ^= 0x01
		return b
	}
	for name, damaged := range map[string][]byte{
		"garbage":         []byte("garbage"),
		"footer-magic":    flip(len(snap) - 1),
		"footer-checksum": flip(len(snap) - 5),
		"index-offset":    flip(len(snap) - snapFooterLen + 7),
		"index-entry":     flip(len(snap) - snapFooterLen - 1),
		"cut-short":       snap[:len(snap)-3],
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		if d2, err := openEngine(dir, cfg); !errors.Is(err, errCorrupt) {
			if err == nil {
				d2.Close()
			}
			t.Fatalf("%s: open over a damaged snapshot = %v, want errCorrupt", name, err)
		}
	}
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	if names, err := d2.Records("written/"); err != nil || len(names) != 8 {
		t.Fatalf("intact snapshot reopened with %v, err=%v", names, err)
	}
}

// TestRetiredLayoutRefused: a directory written by the retired single-log
// engine (wal.log + a top-level snapshot.rec, no MANIFEST) or by the retired
// file backend (one top-level <hex>.rec per record) must not open as an empty
// store over someone's data.
func TestRetiredLayoutRefused(t *testing.T) {
	for _, tc := range []struct{ old, names string }{
		{"wal.log", "single-log wal"},
		{"snapshot.rec", "single-log wal"},
		{hex.EncodeToString([]byte("written/x")) + ".rec", "file backend"},
	} {
		for _, engine := range []string{"wal", "sharded"} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.old), []byte("old bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := OpenBackend(engine, dir, Profile{})
			if err == nil {
				d.Close()
				t.Fatalf("%s opened an empty store beside %s", engine, tc.old)
			}
			for _, want := range []string{"retired", tc.names, tc.old} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("%s beside %s: error does not say %q: %v", engine, tc.old, want, err)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
				t.Fatalf("%s beside %s: refused open left a MANIFEST behind", engine, tc.old)
			}
		}
	}
}

func TestWALSyncFailureNotAcknowledged(t *testing.T) { testSyncFailure(t, walPreset) }
func TestShardedSyncFailureRollsBackShard(t *testing.T) {
	cfg := shardedTestConfig()
	cfg.shards = 4
	testSyncFailure(t, cfg)
}

// testSyncFailure: a group whose segment sync fails is not acknowledged, is
// invisible to Retrieve and does not survive reopen — the store never lies
// about durability. Its shard rolls back to the last good offset and accepts
// stores again once the disk recovers; sibling shards keep committing.
func testSyncFailure(t *testing.T, cfg engineConfig) {
	dir := t.TempDir()
	d := mustOpen(t, dir, cfg)

	victim := "written/victim"
	victimShard := d.shardFor(victim).id
	other := ""
	for i := 0; other == "" && cfg.shards > 1; i++ {
		if name := fmt.Sprintf("written/other%d", i); d.shardFor(name).id != victimShard {
			other = name
		}
	}
	if err := d.Store(victim, []byte("first")); err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	failing.Store(true)
	boom := errors.New("injected sync failure")
	d.syncHook = func(shard int) error {
		if shard == victimShard && failing.Load() {
			return boom
		}
		return nil
	}

	if err := d.Store(victim, []byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("store on failing shard returned %v, want injected failure", err)
	}
	if data, ok, err := d.Retrieve(victim); err != nil || !ok || string(data) != "first" {
		t.Fatalf("unacknowledged store visible: %q ok=%v err=%v", data, ok, err)
	}
	if other != "" {
		if err := d.Store(other, []byte("fine")); err != nil {
			t.Fatalf("sibling shard affected by victim's sync failure: %v", err)
		}
	}

	failing.Store(false)
	if err := d.Store(victim, []byte("second")); err != nil {
		t.Fatalf("shard did not recover after rollback: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	data, ok, err := d2.Retrieve(victim)
	if err != nil || !ok || string(data) != "second" {
		t.Fatalf("victim after reopen = %q ok=%v err=%v, want %q", data, ok, err, "second")
	}
	if other != "" {
		if data, ok, _ := d2.Retrieve(other); !ok || string(data) != "fine" {
			t.Fatalf("sibling record lost: %q ok=%v", data, ok)
		}
	}
}

// overlapHook is a syncHook that records how many commits of one shard are
// inside their fdatasync at once.
type overlapHook struct {
	inside, peak atomic.Int32
}

func (o *overlapHook) sync(int) error {
	n := o.inside.Add(1)
	for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
	}
	runtime.Gosched() // give a second committer the chance to overlap
	o.inside.Add(-1)
	return nil
}

// TestShardedConcurrentCommitsNeverOverlap: eight callers storing to one
// shard at once commit on their own goroutines, one at a time — no two are
// ever inside the shard's sync together — and every Store is visible once it
// returns and survives a reopen. Run it under -race.
func TestShardedConcurrentCommitsNeverOverlap(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, shrunk(walPreset)) // one shard; tiny segments seal and compact underneath
	hook := &overlapHook{}
	d.syncHook = hook.sync
	const writers, stores = 8, 40
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("written/r%d", w)
			for i := range stores {
				val := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := d.Store(name, val); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if got, ok, err := d.Retrieve(name); err != nil || !ok || !bytes.Equal(got, val) {
					t.Errorf("%s right after its Store = %q ok=%v err=%v, want %q", name, got, ok, err, val)
					return
				}
			}
		}()
	}
	wg.Wait()
	if peak := hook.peak.Load(); peak != 1 {
		t.Fatalf("%d commits were inside the shard's sync at once, want 1", peak)
	}
	if got := d.AppendedRecords(); got != writers*stores {
		t.Fatalf("appended %d records, want %d", got, writers*stores)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, walPreset)
	defer d2.Close()
	for w := range writers {
		name, want := fmt.Sprintf("written/r%d", w), fmt.Sprintf("w%d-%d", w, stores-1)
		if got, ok, err := d2.Retrieve(name); err != nil || !ok || string(got) != want {
			t.Fatalf("%s after reopen = %q ok=%v err=%v, want %q", name, got, ok, err, want)
		}
	}
}

func TestWALFlakyCrashReplay(t *testing.T)     { testFlakyCrashReplay(t, walPreset) }
func TestShardedFlakyCrashReplay(t *testing.T) { testFlakyCrashReplay(t, shardedPreset) }

// testFlakyCrashReplay is the crash-replay torture with the register
// lifecycle in the mix: stores, batches and deletes fail with probability
// 0.3 while tiny thresholds keep seals and compactions running underneath;
// whatever was acknowledged — including deletions — must be exactly the
// state after a reopen on the production preset. A Flaky fault fails the
// whole group before it reaches the engine, so the acknowledged map is the
// exact expected state.
func testFlakyCrashReplay(t *testing.T, preset engineConfig) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			cfg := preset
			cfg.segmentBytes, cfg.compactBytes = 512, 1024
			fl := NewFlaky(mustOpen(t, dir, cfg), 0.3, seed)
			rng := rand.New(rand.NewSource(seed * 77))
			state := make(map[string][]byte)
			touched := make(map[string]bool)
			for i := 0; i < 300; i++ {
				switch rng.Intn(3) {
				case 0:
					name := fmt.Sprintf("written/r%d", rng.Intn(8))
					val := []byte(fmt.Sprintf("v%d", i))
					touched[name] = true
					if err := fl.Store(name, val); err == nil {
						state[name] = val
					} else if !errors.Is(err, ErrInjected) {
						t.Fatalf("store: %v", err)
					}
				case 1:
					recs := make([]Record, 1+rng.Intn(3))
					for j := range recs {
						recs[j] = Record{
							Name: fmt.Sprintf("written/r%d", rng.Intn(8)),
							Data: []byte(fmt.Sprintf("b%d.%d", i, j)),
						}
						touched[recs[j].Name] = true
					}
					if err := fl.StoreBatch(recs); err == nil {
						for _, r := range recs {
							state[r.Name] = r.Data
						}
					} else if !errors.Is(err, ErrInjected) {
						t.Fatalf("batch: %v", err)
					}
				case 2:
					name := fmt.Sprintf("written/r%d", rng.Intn(8))
					touched[name] = true
					if err := fl.Delete(name); err == nil {
						delete(state, name)
					} else if !errors.Is(err, ErrInjected) {
						t.Fatalf("delete: %v", err)
					}
				}
			}
			if fl.Failures() == 0 {
				t.Fatal("no faults injected; test is vacuous")
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}

			d2, err := openEngine(dir, preset)
			if err != nil {
				t.Fatalf("reopen after flaky run: %v", err)
			}
			defer d2.Close()
			for name := range touched {
				data, ok, err := d2.Retrieve(name)
				if err != nil {
					t.Fatal(err)
				}
				want, live := state[name]
				if ok != live {
					t.Fatalf("%s present=%v, want %v", name, ok, live)
				}
				if live && !bytes.Equal(data, want) {
					t.Fatalf("%s = %q, want last acknowledged %q", name, data, want)
				}
			}
			names, err := d2.Records("")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(state) {
				t.Fatalf("store holds %d records, want the %d acknowledged ones: %v", len(names), len(state), names)
			}
		})
	}
}

// TestCountingDelete: the Counting wrapper hands Delete through to an engine
// with a register lifecycle and counts it; over one without, it refuses.
func TestCountingDelete(t *testing.T) {
	inner := mustOpen(t, t.TempDir(), shardedTestConfig())
	c := NewCounting(inner)
	defer c.Close()
	if err := c.Delete("written/r00"); err != nil {
		t.Fatal(err)
	}
	if inner.Tombstones() != 1 || c.Deletes() != 1 {
		t.Fatalf("tombstones=%d deletes=%d, want 1 and 1", inner.Tombstones(), c.Deletes())
	}
	plain := NewCounting(NewMemDisk(Profile{}))
	defer plain.Close()
	if err := plain.Delete("x"); !errors.Is(err, ErrNoDelete) {
		t.Fatalf("Delete on memdisk = %v, want ErrNoDelete", err)
	}
}

// FuzzReplayFrames holds the one frame reader to the recovery contract on
// arbitrary bytes: no panic; every frame it reports lies inside the input,
// back to back from offset 0, and re-encodes to exactly the bytes at its
// offset (nothing invented, so what it hands out is bounded by the input);
// the returned offset is the end of the last reported frame; and it stopped
// there because the input ended or the next bytes are not a frame — nothing
// after the first bad frame is applied.
func FuzzReplayFrames(f *testing.F) {
	valid := appendFrame(nil, kindSet, "written/a", []byte("v1"))
	valid = appendFrame(valid, kindTomb, "written/b", nil)
	valid = appendFrame(valid, kindSet, "recovered", bytes.Repeat([]byte{7}, 300))
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add(flipped)
	f.Add(append(bytes.Clone(valid[:30]), 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 1, 2, 3))
	f.Fuzz(func(t *testing.T, log []byte) {
		next := int64(0)
		good := replayFrames(log, func(kind byte, name, data []byte, off int64, flen int32) {
			if off != next || off+int64(flen) > int64(len(log)) {
				t.Fatalf("frame at %d+%d, want it at %d within %d bytes", off, flen, next, len(log))
			}
			if again := appendFrame(nil, kind, string(name), data); !bytes.Equal(again, log[off:off+int64(flen)]) {
				t.Fatalf("frame at %d reported as kind %d %q %x, which encodes to other bytes", off, kind, name, data)
			}
			next = off + int64(flen)
		})
		if good != next {
			t.Fatalf("replay stopped at %d, last reported frame ends at %d", good, next)
		}
		if _, _, _, flen := parseFrame(log[good:]); flen != 0 {
			t.Fatalf("replay stopped at %d of %d before a well-formed frame", good, len(log))
		}
	})
}
