package stable

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shrunk is the base tuning for tests that need seals and compactions after
// a handful of stores: the preset with tiny segments and no close-time
// compaction unless a test opts in.
func shrunk() engineConfig {
	cfg := preset()
	cfg.segmentBytes, cfg.compactBytes, cfg.closeCompactBytes = 256, 512, 0
	return cfg
}

func mustOpen(t testing.TB, dir string, cfg engineConfig) *LogDisk {
	t.Helper()
	d, err := openEngine(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustHold fails the test unless d returns every value of want.
func mustHold(t *testing.T, d *LogDisk, want map[string][]byte) {
	t.Helper()
	for name, val := range want {
		data, ok, err := d.Retrieve(name)
		if err != nil || !ok || !bytes.Equal(data, val) {
			t.Fatalf("%s = %q ok=%v err=%v, want %q", name, data, ok, err, val)
		}
	}
}

// TestWALSurvivesReopen: on the production preset, everything acknowledged
// is there after a reopen, and the reopen itself reads no value — only the
// first Retrieve does.
func TestWALSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, preset())
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
	d2 := mustOpen(t, dir, preset())
	defer d2.Close()
	if n := d2.ResidentValues(); n != 0 {
		t.Fatalf("reopen loaded %d values; it must read the index and the segment tail only", n)
	}
	mustHold(t, d2, want)
	names, err := d2.Records("written/")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(want) {
		t.Fatalf("Records found %d names, want %d", len(names), len(want))
	}
}

// storeNext stores the i-th value of a set of 16 registers, 56 bytes each,
// and records it in want once acknowledged.
func storeNext(d *LogDisk, want map[string][]byte, i int) error {
	name := fmt.Sprintf("written/r%02d", i%16)
	val := append([]byte(fmt.Sprintf("v%d-", i)), bytes.Repeat([]byte("x"), 48)...)
	err := d.Store(name, val)
	if err == nil {
		want[name] = val
	}
	return err
}

// storeUntilCompacted drives stores until at least one background compaction
// completes, returning the last value written per name.
func storeUntilCompacted(t *testing.T, d *LogDisk) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; d.Compactions() == 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("no compaction despite passing the sealed-size threshold")
		}
		if err := storeNext(d, want, i); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestCompactionConcurrentWithServing: compaction merges sealed segments
// into the snapshot while stores and retrieves keep running, no acknowledged
// value is lost or aged backwards, and the segments it consumed are gone
// from the disk — the log does not grow with history. The subtest is named
// after the backend that opens the engine.
func TestCompactionConcurrentWithServing(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		d := mustOpen(t, dir, shrunk())
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
		want := storeUntilCompacted(t, d)
		close(stop)
		if err, _ := readerErr.Load().(error); err != nil {
			t.Fatalf("concurrent retrieve failed: %v", err)
		}
		mustHold(t, d, want)
		names, err := d.Records("written/")
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != len(want) {
			t.Fatalf("Records found %d names, want %d", len(names), len(want))
		}
		d.mu.Lock()
		wm := d.watermark
		d.mu.Unlock()
		if _, err := os.Stat(filepath.Join(d.dir, snapName)); err != nil {
			t.Fatalf("compacted log has no snapshot: %v", err)
		}
		for id := uint64(1); id <= wm; id++ {
			if _, err := os.Stat(d.segPath(id)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("segment %d survived the compaction that covers it: %v", id, err)
			}
		}
	})
}

// TestCloseCompaction: a clean Close folds the segments into the snapshot,
// so the reopened store serves from the index with an empty segment chain —
// recovery does not replay values.
func TestCloseCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := shrunk()
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

	segs, err := filepath.Glob(filepath.Join(dir, logDirName, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err != nil || fi.Size() != 0 {
			t.Fatalf("segment %s survived close-compaction with %d bytes", seg, fi.Size())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, logDirName, snapName)); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	mustHold(t, d2, want)
}

func TestDeleteTombstone(t *testing.T) {
	dir := t.TempDir()
	compacting := shrunk()
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

	d = mustOpen(t, dir, shrunk())
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

	d = mustOpen(t, dir, shrunk())
	defer d.Close()
	data, ok, err := d.Retrieve("written/b")
	if err != nil || !ok || string(data) != "reborn" {
		t.Fatalf("re-created record = %q ok=%v err=%v", data, ok, err)
	}
}

func TestEvictionColdLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := shrunk()
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
	if got := d.ResidentValues(); got != 0 {
		t.Fatalf("stores made %d values resident; only a Retrieve promotes one", got)
	}
	// Every value cold-loads from its segment frame, and the LRU keeps 8.
	mustHold(t, d, want)
	if got := d.ResidentValues(); got > 8 {
		t.Fatalf("%d resident values, want at most 8", got)
	}
	if d.Evictions() == 0 {
		t.Fatal("no evictions despite exceeding residentRecords")
	}
	// A store replaces a resident value in place.
	mustHold(t, d, map[string][]byte{"written/r00": want["written/r00"]})
	want["written/r00"] = []byte("replaced")
	if err := d.Store("written/r00", want["written/r00"]); err != nil {
		t.Fatal(err)
	}
	mustHold(t, d, want)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// After a compacting close, cold loads come from the snapshot instead.
	d2 := mustOpen(t, dir, cfg)
	defer d2.Close()
	mustHold(t, d2, want)
	if got := d2.ResidentValues(); got > 8 {
		t.Fatalf("%d resident values after reopen, want at most 8", got)
	}
}

// TestCrashDuringCompaction: a crash between any two steps of a compaction
// — temp snapshot written, renamed over the old one, consumed segments
// partially deleted — must reopen to exactly the acknowledged state. The
// hook abandons the compaction mid-flight, leaving the files a SIGKILL at
// that instant would leave. Each stage runs as a subtest named after the
// backend that opens the engine.
func TestCrashDuringCompaction(t *testing.T) {
	for _, stage := range []string{"written", "renamed", "deleted"} {
		t.Run(stage, func(t *testing.T) {
			t.Run("wal", func(t *testing.T) {
				dir := t.TempDir()
				cfg := shrunk()
				fired := make(chan struct{}, 1)
				cfg.compactHook = func(s string) bool {
					if s == stage {
						select {
						case fired <- struct{}{}:
						default:
						}
						return false
					}
					return true
				}
				d := mustOpen(t, dir, cfg)
				want := make(map[string][]byte)
				deadline := time.Now().Add(10 * time.Second)
			drive:
				for i := 0; ; i++ {
					if err := storeNext(d, want, i); err != nil {
						t.Fatal(err)
					}
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

				d2, err := openEngine(dir, shrunk())
				if err != nil {
					t.Fatalf("reopen after crash at %q: %v", stage, err)
				}
				defer d2.Close()
				mustHold(t, d2, want)
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

// highestSegment returns the highest-numbered segment: the only one that can
// end in an unacknowledged group.
func highestSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, logDirName, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("the log has no segments: %v", err)
	}
	return segs[len(segs)-1] // Glob sorts; ids are zero-padded
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

// TestWALTornTailTruncated: garbage after the last acknowledged frame of the
// highest segment — the classic torn write of a crash mid-group-commit — is
// cut off at open; everything acknowledged before it survives, nothing in it
// is replayed, and the log accepts appends again.
func TestWALTornTailTruncated(t *testing.T) {
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
			d := mustOpen(t, dir, preset())
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
			appendTo(t, highestSegment(t, dir), torn)

			d2, err := openEngine(dir, preset())
			if err != nil {
				t.Fatalf("open over a torn tail: %v", err)
			}
			mustHold(t, d2, want)
			if _, ok, _ := d2.Retrieve("written/evil"); ok {
				t.Fatal("torn frame was replayed")
			}
			// The log accepts appends again past the cutoff, and they last.
			if err := d2.Store("written/r00", []byte("fresh")); err != nil {
				t.Fatalf("store after torn-tail cutoff: %v", err)
			}
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			d3 := mustOpen(t, dir, preset())
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
// behind it; the open must fail instead, like a bad snapshot. The subtest is
// named after the backend that opens the engine.
func TestSealedSegmentCorruptFailsOpen(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		cfg := shrunk()
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
		sealed := filepath.Join(dir, logDirName, "seg-00000001.wal")
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
	cfg := shrunk()
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
	path := filepath.Join(dir, logDirName, snapName)
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

// readTree returns every entry under dir, relative path → content ("" for
// a directory).
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if e.IsDir() {
			out[rel+"/"] = ""
			return nil
		}
		b, err := os.ReadFile(path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRetiredLayoutRefused: a directory written by a retired engine must not
// open as an empty store over someone's data, and the refusal changes
// nothing in it. The retired engines are the single-log wal (wal.log + a
// top-level snapshot.rec, no MANIFEST), the file backend (one top-level
// <hex>.rec per record), and the eight-shard sharded preset (a MANIFEST that
// pins more shards than one).
func TestRetiredLayoutRefused(t *testing.T) {
	fileRec := hex.EncodeToString([]byte("written/x")) + ".rec"
	for _, tc := range []struct {
		files map[string][]byte
		says  []string
	}{
		{map[string][]byte{"wal.log": []byte("old bytes")}, []string{"single-log wal", "wal.log"}},
		{map[string][]byte{snapName: []byte("old bytes")}, []string{"single-log wal", snapName}},
		{map[string][]byte{fileRec: []byte("old bytes")}, []string{"file backend", fileRec}},
		{map[string][]byte{
			manifestName:                  []byte("8\n"),
			"shard-0003/seg-00000001.wal": appendFrame(nil, kindSet, "written/x", []byte("v")),
		}, []string{"eight-shard sharded preset"}},
	} {
		dir := t.TempDir()
		for name, b := range tc.files {
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := readTree(t, dir)
		d, err := OpenBackend("wal", dir, Profile{})
		if err == nil {
			d.Close()
			t.Fatalf("opened an empty store over %v", slices.Sorted(maps.Keys(tc.files)))
		}
		for _, want := range append(tc.says, "retired") {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error does not say %q: %v", want, err)
			}
		}
		if after := readTree(t, dir); !maps.Equal(before, after) {
			t.Fatalf("refused open changed the directory: %v, was %v", slices.Sorted(maps.Keys(after)), slices.Sorted(maps.Keys(before)))
		}
	}
}

// TestOneShardLayoutOpens: the layout is the one-shard layout the retired
// multi-shard engine wrote for -disk wal, so a store it left opens as is and
// serves its records.
func TestOneShardLayoutOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "shard-0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	seg := appendFrame(nil, kindSet, "written/x", []byte("old"))
	seg = appendFrame(seg, kindSet, "written/y", []byte("gone"))
	seg = appendFrame(seg, kindTomb, "written/y", nil)
	seg = appendFrame(seg, kindSet, "written/x", []byte("kept"))
	for name, b := range map[string][]byte{manifestName: []byte("1\n"), "shard-0000/seg-00000001.wal": seg} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d := mustOpen(t, dir, preset())
	defer d.Close()
	mustHold(t, d, map[string][]byte{"written/x": []byte("kept")})
	if names, err := d.Records(""); err != nil || !slices.Equal(names, []string{"written/x"}) {
		t.Fatalf("Records = %v, %v; want [written/x]", names, err)
	}
}

// TestWALSyncFailureNotAcknowledged: a group whose segment sync fails is not
// acknowledged, is invisible to Retrieve and does not survive reopen — the
// store never lies about durability. The log rolls back to the last good
// offset and accepts stores again once the disk recovers.
func TestWALSyncFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	boom := errors.New("injected sync failure")
	cfg := preset()
	cfg.syncHook = func(path string) error {
		if strings.HasSuffix(path, ".wal") && failing.Load() {
			return boom
		}
		return nil
	}
	d := mustOpen(t, dir, cfg)

	victim := "written/victim"
	if err := d.Store(victim, []byte("first")); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	if err := d.Store(victim, []byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("store on a failing segment returned %v, want injected failure", err)
	}
	if data, ok, err := d.Retrieve(victim); err != nil || !ok || string(data) != "first" {
		t.Fatalf("unacknowledged store visible: %q ok=%v err=%v", data, ok, err)
	}

	failing.Store(false)
	if err := d.Store(victim, []byte("second")); err != nil {
		t.Fatalf("log did not recover after rollback: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := mustOpen(t, dir, preset())
	defer d2.Close()
	data, ok, err := d2.Retrieve(victim)
	if err != nil || !ok || string(data) != "second" {
		t.Fatalf("victim after reopen = %q ok=%v err=%v, want %q", data, ok, err, "second")
	}
}

// TestSealDirSyncFailure: a segment whose directory entry cannot be made
// durable takes no group. A first segment that cannot be made durable fails
// the open; a seal that cannot fails, removes the new segment and wedges the
// log, and every group acknowledged before reads back on reopen.
func TestSealDirSyncFailure(t *testing.T) {
	boom := errors.New("injected directory sync failure")
	var failing atomic.Bool
	dir := t.TempDir()
	logDir := filepath.Join(dir, logDirName)
	cfg := shrunk()
	cfg.compactBytes = 1 << 30 // no compaction: a seal is the only directory sync
	cfg.syncHook = func(path string) error {
		if path == logDir && failing.Load() {
			return boom
		}
		return nil
	}
	failing.Store(true)
	if d, err := openEngine(dir, cfg); !errors.Is(err, boom) {
		if err == nil {
			d.Close()
		}
		t.Fatalf("open whose first segment cannot be made durable = %v, want the injected failure", err)
	}

	failing.Store(false)
	d := mustOpen(t, dir, cfg)
	failing.Store(true)
	want := make(map[string][]byte)
	var err error
	for i := 0; err == nil; i++ {
		if i == 100 {
			t.Fatal("no seal after 100 stores")
		}
		err = storeNext(d, want, i)
	}
	if !errors.Is(err, errLogBroken) || !errors.Is(err, boom) {
		t.Fatalf("store after a failed seal = %v, want the log broken by the injected failure", err)
	}
	if segs, _ := filepath.Glob(filepath.Join(logDir, "seg-*.wal")); len(segs) != 1 {
		t.Fatalf("segments after a failed seal: %v, want the one that holds the acknowledged groups", segs)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, shrunk())
	defer d2.Close()
	mustHold(t, d2, want)
}

// TestCompactionDirSyncFailure: when the directory sync after a snapshot
// rename fails, a crash may bring back either snapshot, and the old one
// needs every consumed segment. The compaction deletes nothing and wedges
// the log, and every acknowledged group reads back on reopen.
func TestCompactionDirSyncFailure(t *testing.T) {
	boom := errors.New("injected directory sync failure")
	var renaming atomic.Bool
	dir := t.TempDir()
	logDir := filepath.Join(dir, logDirName)
	cfg := shrunk()
	cfg.syncHook = func(path string) error {
		if strings.HasPrefix(filepath.Base(path), "snap-tmp-") {
			renaming.Store(true) // the temp snapshot is synced right before its rename
		}
		if path == logDir && renaming.Load() {
			return boom
		}
		return nil
	}
	d := mustOpen(t, dir, cfg)
	want := make(map[string][]byte)
	for i := 0; !renaming.Load(); i++ {
		if i == 1000 {
			t.Fatal("no compaction after 1000 stores")
		}
		// Once the compaction is under way, a seal may hit the failing
		// directory sync first and wedge the log itself.
		if err := storeNext(d, want, i); err != nil && !renaming.Load() {
			t.Fatal(err)
		}
	}
	d.compWG.Wait()
	if err := d.Store("written/late", []byte("v")); !errors.Is(err, errLogBroken) || !errors.Is(err, boom) {
		t.Fatalf("store after a failed compaction = %v, want the log broken by the injected failure", err)
	}
	if n := d.Compactions(); n != 0 {
		t.Fatalf("%d compactions completed, want none", n)
	}
	for id := uint64(1); id <= d.activeID; id++ {
		if _, err := os.Stat(d.segPath(id)); err != nil {
			t.Fatalf("segment %d is gone after the failed compaction: %v", id, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, shrunk())
	defer d2.Close()
	mustHold(t, d2, want)
}

// TestManifestSyncFailure: a new store whose manifest cannot be made durable
// — its temp file's sync or the directory sync after the rename fails —
// fails the open and leaves the directory as it found it, and the next open
// creates the store.
func TestManifestSyncFailure(t *testing.T) {
	boom := errors.New("injected sync failure")
	for name, fails := range map[string]func(dir, path string) bool{
		"temp-file": func(_, path string) bool { return strings.HasPrefix(filepath.Base(path), "manifest-") },
		"directory": func(dir, path string) bool { return path == dir },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := preset()
			cfg.syncHook = func(path string) error {
				if fails(dir, path) {
					return boom
				}
				return nil
			}
			if d, err := openEngine(dir, cfg); !errors.Is(err, boom) {
				if err == nil {
					d.Close()
				}
				t.Fatalf("open = %v, want the injected failure", err)
			}
			if left := readTree(t, dir); len(left) != 0 {
				t.Fatalf("failed open left %v behind", slices.Sorted(maps.Keys(left)))
			}
			d := mustOpen(t, dir, preset())
			want := map[string][]byte{"written/x": []byte("v")}
			if err := d.Store("written/x", want["written/x"]); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2 := mustOpen(t, dir, preset())
			defer d2.Close()
			mustHold(t, d2, want)
		})
	}
}

// overlapHook is a syncHook that records how many commits are inside their
// segment fdatasync at once.
type overlapHook struct {
	inside, peak atomic.Int32
}

func (o *overlapHook) sync(path string) error {
	if !strings.HasSuffix(path, ".wal") {
		return nil // a directory or snapshot sync: not a commit
	}
	n := o.inside.Add(1)
	for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
	}
	runtime.Gosched() // give a second committer the chance to overlap
	o.inside.Add(-1)
	return nil
}

// TestConcurrentCommitsNeverOverlap: eight callers storing at once commit on
// their own goroutines, one at a time — no two are ever inside the segment
// sync together — and every Store is visible once it returns and survives a
// reopen. Run it under -race.
func TestConcurrentCommitsNeverOverlap(t *testing.T) {
	dir := t.TempDir()
	hook := &overlapHook{}
	cfg := shrunk() // tiny segments seal and compact underneath
	cfg.syncHook = hook.sync
	d := mustOpen(t, dir, cfg)
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
		t.Fatalf("%d commits were inside the segment sync at once, want 1", peak)
	}
	if got := d.AppendedRecords(); got != writers*stores {
		t.Fatalf("appended %d records, want %d", got, writers*stores)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, dir, preset())
	defer d2.Close()
	for w := range writers {
		name, want := fmt.Sprintf("written/r%d", w), fmt.Sprintf("w%d-%d", w, stores-1)
		if got, ok, err := d2.Retrieve(name); err != nil || !ok || string(got) != want {
			t.Fatalf("%s after reopen = %q ok=%v err=%v, want %q", name, got, ok, err, want)
		}
	}
}

// TestWALFlakyCrashReplay is the crash-replay torture with the register
// lifecycle in the mix: stores, batches and deletes fail with probability
// 0.3 while small thresholds keep seals and compactions running underneath;
// whatever was acknowledged — including deletions — must be exactly the
// state after a reopen on the production preset. A Flaky fault fails the
// whole group before it reaches the engine, so the acknowledged map is the
// exact expected state.
func TestWALFlakyCrashReplay(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			cfg := preset()
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

			d2, err := openEngine(dir, preset())
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
	inner := mustOpen(t, t.TempDir(), shrunk())
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
