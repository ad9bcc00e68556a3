package stable

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// storageFactories is the conformance harness: a constructor per
// implementation so every Storage-contract test runs against all of them.
func storageFactories(t *testing.T) map[string]func() Storage {
	t.Helper()
	return map[string]func() Storage{
		"memdisk": func() Storage { return NewMemDisk(Profile{}) },
		"waldisk": func() Storage { return mustOpen(t, t.TempDir(), preset()) },
	}
}

func TestStoreRetrieve(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if _, ok, err := s.Retrieve("missing"); err != nil || ok {
				t.Fatalf("missing record: ok=%v err=%v", ok, err)
			}
			if err := s.Store("written/x", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			data, ok, err := s.Retrieve("written/x")
			if err != nil || !ok || !bytes.Equal(data, []byte("v1")) {
				t.Fatalf("got %q ok=%v err=%v", data, ok, err)
			}
			// Overwrite.
			if err := s.Store("written/x", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			data, _, _ = s.Retrieve("written/x")
			if !bytes.Equal(data, []byte("v2")) {
				t.Fatalf("after overwrite got %q", data)
			}
			// Empty data is a valid record.
			if err := s.Store("empty", nil); err != nil {
				t.Fatal(err)
			}
			data, ok, err = s.Retrieve("empty")
			if err != nil || !ok || len(data) != 0 {
				t.Fatalf("empty record: %q ok=%v err=%v", data, ok, err)
			}
		})
	}
}

func TestRecordsPrefix(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			for _, rec := range []string{"written/b", "written/ab", "written/a", "writing/a", "recovered"} {
				if err := s.Store(rec, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			// Prefixes select on the whole record name: names that extend
			// each other, a prefix that is not a whole path segment, no match.
			for _, tc := range []struct {
				prefix string
				want   []string
			}{
				{"written/", []string{"written/a", "written/ab", "written/b"}},
				{"written/a", []string{"written/a", "written/ab"}},
				{"writ", []string{"writing/a", "written/a", "written/ab", "written/b"}},
				{"recovered", []string{"recovered"}},
				{"written/zzz", nil},
				{"", []string{"recovered", "writing/a", "written/a", "written/ab", "written/b"}},
			} {
				got, err := s.Records(tc.prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, tc.want) {
					t.Fatalf("Records(%q) = %v, want %v", tc.prefix, got, tc.want)
				}
			}
		})
	}
}

// TestScanMatchesRecords is the Scanner conformance case: for every engine
// and a spread of prefixes, the streamed enumeration must agree exactly with
// the materialized one (as a set — Scan's order is unspecified), every
// engine must implement the native Scanner so recovery never falls back to
// the O(namespace) adapter, a callback error must stop the scan, and a
// closed store must refuse to scan.
func TestScanMatchesRecords(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if _, ok := s.(Scanner); !ok {
				t.Fatalf("%s does not implement Scanner", name)
			}
			for i := 0; i < 40; i++ {
				if err := s.Store(fmt.Sprintf("written/r%03d", i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for _, rec := range []string{"writing/a", "writing/b", "recovered", "incarnation"} {
				if err := s.Store(rec, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			for _, prefix := range []string{"", "written/", "writing/", "recovered", "nope/"} {
				want, err := s.Records(prefix)
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[string]int)
				if err := ScanRecords(s, prefix, func(name string) error {
					seen[name]++
					return nil
				}); err != nil {
					t.Fatalf("Scan(%q): %v", prefix, err)
				}
				if len(seen) != len(want) {
					t.Fatalf("Scan(%q) streamed %d names, Records has %d", prefix, len(seen), len(want))
				}
				for _, name := range want {
					if seen[name] != 1 {
						t.Fatalf("Scan(%q) streamed %q %d times", prefix, name, seen[name])
					}
				}
			}
			// A callback error stops the scan and propagates.
			sentinel := errors.New("stop")
			calls := 0
			err := ScanRecords(s, "written/", func(string) error {
				calls++
				return sentinel
			})
			if !errors.Is(err, sentinel) || calls != 1 {
				t.Fatalf("callback error: err=%v calls=%d", err, calls)
			}
			s.Close()
			if err := ScanRecords(s, "", func(string) error { return nil }); !errors.Is(err, ErrClosed) {
				t.Fatalf("scan after close: %v", err)
			}
		})
	}
}

func TestRetrieveReturnsCopy(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			orig := []byte("abc")
			if err := s.Store("r", orig); err != nil {
				t.Fatal(err)
			}
			orig[0] = 'X' // caller mutates its buffer after Store
			got, _, _ := s.Retrieve("r")
			if !bytes.Equal(got, []byte("abc")) {
				t.Fatalf("Store aliased caller buffer: %q", got)
			}
			got[0] = 'Y' // caller mutates the retrieved buffer
			got2, _, _ := s.Retrieve("r")
			if !bytes.Equal(got2, []byte("abc")) {
				t.Fatalf("Retrieve aliased stored buffer: %q", got2)
			}
		})
	}
}

func TestClosedErrors(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.Store("r", nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("Store after close: %v", err)
			}
			if _, _, err := s.Retrieve("r"); !errors.Is(err, ErrClosed) {
				t.Fatalf("Retrieve after close: %v", err)
			}
			if _, err := s.Records(""); !errors.Is(err, ErrClosed) {
				t.Fatalf("Records after close: %v", err)
			}
		})
	}
}

func TestStoreBatch(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			if err := s.StoreBatch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := s.StoreBatch([]Record{
				{Name: "written/a", Data: []byte("v1")},
				{Name: "written/b", Data: []byte("v2")},
				{Name: "written/a", Data: []byte("v3")}, // same name: last wins
			}); err != nil {
				t.Fatal(err)
			}
			if data, ok, err := s.Retrieve("written/a"); err != nil || !ok || !bytes.Equal(data, []byte("v3")) {
				t.Fatalf("written/a = %q ok=%v err=%v", data, ok, err)
			}
			if data, ok, err := s.Retrieve("written/b"); err != nil || !ok || !bytes.Equal(data, []byte("v2")) {
				t.Fatalf("written/b = %q ok=%v err=%v", data, ok, err)
			}
			// The batch must not alias caller buffers.
			orig := []byte("mut")
			if err := s.StoreBatch([]Record{{Name: "c", Data: orig}}); err != nil {
				t.Fatal(err)
			}
			orig[0] = 'X'
			if data, _, _ := s.Retrieve("c"); !bytes.Equal(data, []byte("mut")) {
				t.Fatalf("StoreBatch aliased caller buffer: %q", data)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := s.StoreBatch([]Record{{Name: "d"}}); !errors.Is(err, ErrClosed) {
				t.Fatalf("StoreBatch after close: %v", err)
			}
		})
	}
}

func TestConcurrentStoreBatches(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						recs := []Record{
							{Name: fmt.Sprintf("a%d", w), Data: []byte{byte(i)}},
							{Name: fmt.Sprintf("b%d", w), Data: []byte{byte(i)}},
						}
						if err := s.StoreBatch(recs); err != nil {
							t.Errorf("batch: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < 4; w++ {
				for _, pre := range []string{"a", "b"} {
					data, ok, err := s.Retrieve(fmt.Sprintf("%s%d", pre, w))
					if err != nil || !ok || !bytes.Equal(data, []byte{19}) {
						t.Fatalf("%s%d = %v ok=%v err=%v", pre, w, data, ok, err)
					}
				}
			}
		})
	}
}

func TestMemDiskLatency(t *testing.T) {
	d := NewMemDisk(Profile{StoreDelay: 20 * time.Millisecond})
	defer d.Close()
	start := time.Now()
	if err := d.Store("r", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("Store returned after %v, want >= ~20ms", el)
	}
}

func TestMemDiskBandwidth(t *testing.T) {
	d := NewMemDisk(Profile{BytesPerSec: 1e6}) // 1 MB/s
	defer d.Close()
	start := time.Now()
	if err := d.Store("r", make([]byte, 20<<10)); err != nil { // 20 KB => ~20ms
		t.Fatal(err)
	}
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("Store returned after %v, want >= ~20ms", el)
	}
}

func TestMemDiskSurvivesReopen(t *testing.T) {
	d := NewMemDisk(Profile{})
	if err := d.Store("written/x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Reopen()
	data, ok, err := d.Retrieve("written/x")
	if err != nil || !ok || !bytes.Equal(data, []byte("v")) {
		t.Fatalf("after reopen: %q ok=%v err=%v", data, ok, err)
	}
}

// TestIncarnationRecordSurvivesReopen pins the stable-storage leg of the
// incarnation-epoch contract (docs/adr/0006): the "incarnation" record a
// node mints during recovery must survive a process restart, or the next
// boot would reuse a burned epoch. It is also the one test of the "sharded"
// alias: a store written under either durable name reopens under the other
// (docs/adr/0021).
func TestIncarnationRecordSurvivesReopen(t *testing.T) {
	for engine, reopen := range map[string]string{"wal": "sharded", "sharded": "wal"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenBackend(engine, dir, Profile{})
			if err != nil {
				t.Fatal(err)
			}
			epoch := []byte{0, 0, 0, 0, 0, 0, 0, 7}
			if err := d.Store("incarnation", epoch); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			d2, err := OpenBackend(reopen, dir, Profile{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			data, ok, err := d2.Retrieve("incarnation")
			if err != nil || !ok || !bytes.Equal(data, epoch) {
				t.Fatalf("after reopen: %q ok=%v err=%v", data, ok, err)
			}
		})
	}
}

func TestCounting(t *testing.T) {
	c := NewCounting(NewMemDisk(Profile{}))
	defer c.Close()
	if err := c.Store("a", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("a", []byte("123")); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("b", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retrieve("a"); err != nil {
		t.Fatal(err)
	}
	if c.Stores() != 3 || c.Retrieves() != 1 || c.Bytes() != 8 {
		t.Fatalf("counts: stores=%d retrieves=%d bytes=%d", c.Stores(), c.Retrieves(), c.Bytes())
	}
	if c.RecordStores("a") != 2 || c.RecordStores("b") != 1 || c.RecordStores("zzz") != 0 {
		t.Fatal("per-record counts wrong")
	}
	// A batch counts once as a batch and per record as stores.
	if err := c.StoreBatch([]Record{{Name: "a", Data: []byte("xy")}, {Name: "c", Data: []byte("z")}}); err != nil {
		t.Fatal(err)
	}
	if c.Batches() != 1 || c.Stores() != 5 || c.Bytes() != 11 || c.RecordStores("c") != 1 {
		t.Fatalf("after batch: batches=%d stores=%d bytes=%d", c.Batches(), c.Stores(), c.Bytes())
	}
	recs, err := c.Records("")
	if err != nil || len(recs) != 3 {
		t.Fatalf("Records = %v err=%v", recs, err)
	}
	// The enumeration counters split the streaming path from the
	// materializing one, and retrieves count per prefix — the counters the
	// lazy-recovery guarantee test reads.
	if c.Lists() != 1 || c.Scans() != 0 {
		t.Fatalf("after Records: lists=%d scans=%d", c.Lists(), c.Scans())
	}
	if err := c.Scan("a", func(string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c.Scans() != 1 || c.Lists() != 1 {
		t.Fatalf("after Scan: scans=%d lists=%d", c.Scans(), c.Lists())
	}
	if _, _, err := c.Retrieve("b"); err != nil {
		t.Fatal(err)
	}
	if got := c.PrefixRetrieves("a"); got != 1 {
		t.Fatalf("PrefixRetrieves(a) = %d", got)
	}
	if got := c.PrefixRetrieves(""); got != 2 {
		t.Fatalf("PrefixRetrieves(\"\") = %d", got)
	}
}

func TestConcurrentStores(t *testing.T) {
	for name, mk := range storageFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			defer s.Close()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 25; i++ {
						rec := fmt.Sprintf("r%d", w)
						if err := s.Store(rec, []byte{byte(i)}); err != nil {
							t.Errorf("store: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			for w := 0; w < 4; w++ {
				data, ok, err := s.Retrieve(fmt.Sprintf("r%d", w))
				if err != nil || !ok || !bytes.Equal(data, []byte{24}) {
					t.Fatalf("r%d = %v ok=%v err=%v", w, data, ok, err)
				}
			}
		})
	}
}

func TestDiskProfile(t *testing.T) {
	p := DiskProfile()
	if p.StoreDelay != 200*time.Microsecond {
		t.Fatalf("DiskProfile = %+v", p)
	}
	// λ for a small record should be about twice the paper's δ (0.1 ms).
	if d := p.delay(4); d < 200*time.Microsecond || d > 210*time.Microsecond {
		t.Fatalf("small-record delay = %v", d)
	}
}
