package stable

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ShardedDisk is the one log engine behind both -disk wal and -disk sharded:
// a store of CRC-framed, append-only segment chains, background compaction
// into an indexed snapshot, and an index-only reopen. The two backend names
// are two presets of it (walPreset, shardedPreset) and differ only in shard
// count and in how many values stay in memory:
//
//   - Records hash onto a fixed number of shards (the count is persisted in
//     a MANIFEST so reopens agree). Each shard owns its own segment chain,
//     snapshot and commit mutex, and recovery opens all shards in parallel.
//     With one shard a k-record batch is one write and one fsync; with
//     several, shards index, commit and compact independently.
//   - A shard snapshot ends in a sorted footer index (name → frame offset),
//     so opening a shard reads the index and the small segment tail — not
//     the values. What must be replayed before the store is serving again
//     is bounded by the compaction policy, independent of namespace size.
//   - Values are resident only while hot: an LRU per shard keeps at most
//     residentRecords values in memory (the wal preset keeps every value it
//     has touched); everything else is cold-loaded from the snapshot or
//     segment file on demand. The index (names + offsets) is the only
//     per-record memory that scales with the namespace.
//   - Registers can be deleted: Delete appends a tombstone frame, and
//     compaction drops tombstoned records from the next snapshot, so a
//     churning namespace does not grow without bound.
//   - Compaction merges a shard's snapshot and sealed segments into a new
//     snapshot concurrently with serving (only the active segment takes new
//     appends), triggered by sealed-segment size and by a final pass on
//     clean Close. The rename of the new snapshot is the atomic commit
//     point: its watermark records the highest segment it covers, so a crash
//     anywhere between temp-write, rename, and segment deletion recovers to
//     a consistent state.
//
// Layout under dir:
//
//	MANIFEST            — shard count, written once at creation
//	shard-0000/
//	  snapshot.rec      — data frames + sorted index + footer (watermark)
//	  seg-00000001.wal  — CRC-framed append-only segments; highest id active
//	shard-0001/ ...
//
// Store/StoreBatch/Delete commit on the caller's goroutine (docs/adr/0019):
// the call's records for one shard are one write and one fdatasync of that
// shard's active segment, under the shard's commit mutex, and are
// acknowledged — and become visible to Retrieve — only after it. Gathering
// concurrent stores into one sync is the caller's business: a node's logger
// is the one caller that matters, and it hands over whole groups. A batch
// spanning shards commits its shards concurrently; on error none of it is
// acknowledged (the Storage contract), and a shard whose sync fails rolls
// back to its last good offset without touching its siblings.
type ShardedDisk struct {
	dir    string
	cfg    engineConfig
	shards []*shard

	syncs       atomic.Int64
	batches     atomic.Int64
	appended    atomic.Int64
	compactions atomic.Int64
	tombstones  atomic.Int64
	evictions   atomic.Int64

	// syncHook, when set by tests before any Store, replaces the per-shard
	// segment fdatasync to inject commit failures on selected shards.
	syncHook func(shard int) error
	// compactHook, when set by tests, is called at each stage of a shard
	// compaction ("written", "renamed", "deleted"); returning false abandons
	// the compaction at that point without cleaning up — the file-level
	// state a SIGKILL at that instant would leave behind.
	compactHook func(shard int, stage string) bool
}

var (
	_ Storage = (*ShardedDisk)(nil)
	_ Deleter = (*ShardedDisk)(nil)
)

// engineConfig is everything one opening of the engine can differ in.
// Production passes exactly the two presets below; tests copy one and shrink
// its thresholds so seals and compactions happen after a handful of stores.
type engineConfig struct {
	// shards is the shard count of a new directory. The count persisted in
	// an existing MANIFEST wins — records must keep hashing to their shard.
	shards int
	// residentRecords caps the record values each shard keeps in memory;
	// evicted values cold-load on Retrieve. 0 keeps every value resident.
	residentRecords int
	// segmentBytes seals the active segment once it grows past this size.
	segmentBytes int64
	// compactBytes triggers a shard compaction when its sealed segments
	// exceed this many bytes.
	compactBytes int64
	// closeCompactBytes runs a final compaction on a clean Close when a
	// shard holds at least this many uncompacted bytes (0: never), so a
	// cleanly restarted process reopens from the index alone. A crash skips
	// it, and replay stays bounded by the size trigger above.
	closeCompactBytes int64
}

// preset is the production tuning: what a crash leaves to replay is at most
// the sealed chain (compactBytes plus one segment) and the active segment.
func preset(shards, residentRecords int) engineConfig {
	return engineConfig{
		shards:            shards,
		residentRecords:   residentRecords,
		segmentBytes:      256 << 10,
		compactBytes:      1 << 20,
		closeCompactBytes: 64 << 10,
	}
}

var (
	// walPreset is -disk wal: one shard, so a k-record batch costs one fsync
	// stream, and every value read or written since open stays in memory.
	walPreset = preset(1, 0)
	// shardedPreset is -disk sharded: eight index partitions that commit and
	// compact independently, and a bounded resident set per shard.
	shardedPreset = preset(8, 4096)
)

const (
	manifestName = "MANIFEST"
	shardSnap    = "snapshot.rec"

	// Frame kinds: a stored value or a tombstone.
	kindSet  = 0
	kindTomb = 1

	// frameHeader is the per-frame overhead: payload length + CRC32.
	frameHeader = 8
	// frameMeta is the payload overhead before the data: kind byte + name
	// length.
	frameMeta = 5

	// snapFooterLen is the fixed trailer of a shard snapshot:
	// u64 index offset | u64 watermark | u32 CRC32(index) | u32 magic.
	snapFooterLen = 24
	snapMagic     = 0x52534e50 // "RSNP"
)

var (
	// errLogBroken wraps the write failure that wedged a shard's log.
	errLogBroken = errors.New("stable: log broken by earlier write failure")
	// errCorrupt is damage to bytes that were written in full and made
	// durable before anything depended on them — a snapshot, or a sealed
	// segment. Unlike a torn tail it cannot be cut off without dropping
	// acknowledged records, so it fails the open.
	errCorrupt = errors.New("stable: corrupted store")
)

// shardKey returns the hash key of a record name: the part after the first
// '/'. Register emulations name their records role/register ("written/x",
// "writing/x"), so every record of one register lands in one shard; names
// without a role prefix ("recovered", "incarnation") hash whole.
func shardKey(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// shardFor hashes the record's key onto a shard with 32-bit FNV-1a.
func (d *ShardedDisk) shardFor(name string) *shard {
	key := shardKey(name)
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return d.shards[h%uint32(len(d.shards))]
}

// recLoc locates one record's latest frame: segment id (0 = the shard
// snapshot), frame start offset, and full frame length.
type recLoc struct {
	seg  uint64
	off  int64
	flen int32
	tomb bool
}

// segInfo is one sealed, immutable segment awaiting compaction. The file
// handle stays open so cold loads survive the unlink that a concurrent
// compaction performs on the path.
type segInfo struct {
	id   uint64
	f    *os.File
	size int64
}

// pendingRec is one record of a commit in flight: what commit publishes once
// it is durable.
type pendingRec struct {
	name string
	data []byte
	loc  recLoc
}

// resVal is one resident value in a shard's LRU.
type resVal struct {
	name string
	data []byte
	prev *resVal
	next *resVal
}

// shard is one of the store's independent slices: its own segment chain,
// snapshot, index, resident-value cache, and commit mutex.
type shard struct {
	d   *ShardedDisk
	id  int
	dir string

	// commitMu serializes commits: its holder appends to and syncs the
	// active segment off mu (readers only ever pread below the durable good
	// offset), seals it, and owns the scratch below. Close takes it to let
	// an in-flight commit finish.
	commitMu sync.Mutex

	// mu guards everything below plus all reads of the file handles; closed,
	// broken, active, activeID and good change only under commitMu too, so
	// its holder reads them without mu.
	mu sync.Mutex

	// The base index: the snapshot's sorted raw index block and the start
	// offset of each entry within it. Nothing per-record is allocated at
	// open; names materialize only when enumerated or promoted.
	baseRaw   []byte
	baseOffs  []int32
	snapF     *os.File
	watermark uint64

	// over shadows the base: every record stored or deleted since the
	// snapshot, pointing into a segment. A tomb entry hides a base record.
	over map[string]recLoc

	// Resident values: name → node of an intrusive LRU list (head = most
	// recently used).
	res     map[string]*resVal
	lruHead *resVal
	lruTail *resVal

	closed bool
	broken error

	active     *os.File
	activeID   uint64
	good       int64
	sealed     []*segInfo
	sealedSize int64
	compacting bool

	// Commit scratch, owned by commitMu's holder and reused from one commit
	// to the next.
	frames  []byte
	pending []pendingRec

	compWG sync.WaitGroup
}

// openEngine opens (creating if necessary) the store rooted at dir. All
// shards open in parallel: each reads its snapshot's footer index and replays
// only its segment tail, so open time is bounded by the compaction policy
// rather than the namespace size.
func openEngine(dir string, cfg engineConfig) (*ShardedDisk, error) {
	if dir == "" {
		return nil, errors.New("stable: the log engine (wal, sharded) needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stable: create dir: %w", err)
	}
	n, err := loadManifest(dir, cfg.shards)
	if err != nil {
		return nil, err
	}
	d := &ShardedDisk{dir: dir, cfg: cfg, shards: make([]*shard, n)}
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			sh := &shard{
				d: d, id: i, dir: filepath.Join(dir, fmt.Sprintf("shard-%04d", i)),
				over: make(map[string]recLoc),
				res:  make(map[string]*resVal),
			}
			d.shards[i] = sh
			errs <- sh.open()
		}(i)
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		for _, sh := range d.shards {
			if sh != nil {
				sh.closeFiles()
			}
		}
		return nil, firstErr
	}
	return d, nil
}

// loadManifest reads the persisted shard count, creating the manifest with
// want shards on first open — unless dir holds the retired layout. The
// persisted count always wins: records must keep hashing onto the shard that
// holds them.
func loadManifest(dir string, want int) (int, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err == nil {
		n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || n < 1 {
			return 0, fmt.Errorf("stable: corrupt manifest %q", string(data))
		}
		return n, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return 0, fmt.Errorf("stable: read manifest: %w", err)
	}
	// The single-log engine this one replaced kept wal.log and snapshot.rec
	// at the top level, and the retired file backend one <hex>.rec per
	// record. Creating a manifest beside them would present an empty store
	// over someone's data.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("stable: read dir: %w", err)
	}
	for _, e := range entries {
		switch old := e.Name(); {
		case old == "wal.log" || old == shardSnap:
			return 0, fmt.Errorf("stable: %s holds %s in the retired single-log wal format, which this version cannot read", dir, old)
		case strings.HasSuffix(old, ".rec"):
			return 0, fmt.Errorf("stable: %s holds %s, a record of the retired file backend (one file per record), which this version cannot read", dir, old)
		}
	}
	tmp, err := os.CreateTemp(dir, "manifest-*")
	if err != nil {
		return 0, fmt.Errorf("stable: write manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := fmt.Fprintf(tmp, "%d\n", want); err == nil {
		err = tmp.Sync()
	} else {
		tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("stable: write manifest: %w", err)
	}
	syncDir(dir)
	return want, nil
}

func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		_ = f.Sync()
		f.Close()
	}
}

// open loads one shard: stray compaction temp files are removed, the
// snapshot's footer index is mapped (no values), segments covered by the
// snapshot watermark are garbage from an interrupted compaction and are
// deleted, and the remaining segment tail replays into the overlay. Only the
// highest segment can end in an unacknowledged group — a segment is sealed
// right after a group in it was acknowledged — so only there is a malformed
// frame a torn tail to cut off; anywhere else it hides acknowledged records
// behind it and fails the open. The highest segment becomes the active one.
func (sh *shard) open() error {
	if err := os.MkdirAll(sh.dir, 0o755); err != nil {
		return fmt.Errorf("stable: create shard dir: %w", err)
	}
	if strays, err := filepath.Glob(filepath.Join(sh.dir, "snap-tmp-*")); err == nil {
		for _, s := range strays {
			os.Remove(s)
		}
	}
	if err := sh.openSnapshot(); err != nil {
		return err
	}

	entries, err := os.ReadDir(sh.dir)
	if err != nil {
		return fmt.Errorf("stable: list shard: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &id); err == nil {
			if id <= sh.watermark {
				// Covered by the snapshot: leftover input of a compaction
				// that crashed between rename and deletion.
				os.Remove(sh.segPath(id))
				continue
			}
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)

	for i, id := range ids {
		f, err := os.OpenFile(sh.segPath(id), os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("stable: open segment: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("stable: stat segment: %w", err)
		}
		log, err := readSegment(f, fi.Size())
		if err != nil {
			f.Close()
			return fmt.Errorf("stable: replay segment %d: %w", id, err)
		}
		good := replayFrames(log, func(kind byte, name, _ []byte, off int64, flen int32) {
			sh.over[string(name)] = recLoc{seg: id, off: off, flen: flen, tomb: kind == kindTomb}
		})
		if i < len(ids)-1 {
			if good < fi.Size() {
				f.Close()
				return fmt.Errorf("%w: sealed segment %s has a malformed frame at offset %d", errCorrupt, sh.segPath(id), good)
			}
			sh.sealed = append(sh.sealed, &segInfo{id: id, f: f, size: good})
			sh.sealedSize += good
			continue
		}
		if good < fi.Size() {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return fmt.Errorf("stable: truncate torn tail: %w", err)
			}
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("stable: seek segment end: %w", err)
		}
		sh.active, sh.activeID, sh.good = f, id, good
	}
	if sh.active == nil {
		// No segment survives (new shard, or a clean Close compacted them
		// all); ids restart above the watermark.
		f, err := sh.createSegment(sh.watermark + 1)
		if err != nil {
			return err
		}
		sh.active, sh.activeID = f, sh.watermark+1
	}
	return nil
}

func (sh *shard) segPath(id uint64) string {
	return filepath.Join(sh.dir, fmt.Sprintf("seg-%08d.wal", id))
}

// readSegment returns the first size bytes of a segment file.
func readSegment(f *os.File, size int64) ([]byte, error) {
	log := make([]byte, size)
	if _, err := f.ReadAt(log, 0); err != nil {
		return nil, err
	}
	return log, nil
}

// createSegment creates an empty segment file and makes its name durable: a
// group acknowledged in it must not vanish with the directory entry.
func (sh *shard) createSegment(id uint64) (*os.File, error) {
	f, err := os.OpenFile(sh.segPath(id), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stable: create segment: %w", err)
	}
	syncDir(sh.dir)
	return f, nil
}

// openSnapshot maps the snapshot's footer index without touching the data
// region. A malformed snapshot is real corruption — it was written in full
// and renamed atomically — and fails the open.
func (sh *shard) openSnapshot() error {
	f, err := os.Open(filepath.Join(sh.dir, shardSnap))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("stable: open snapshot: %w", err)
	}
	raw, offs, wm, err := readSnapIndex(f)
	if err != nil {
		f.Close()
		return err
	}
	sh.snapF, sh.baseRaw, sh.baseOffs, sh.watermark = f, raw, offs, wm
	return nil
}

// readSnapIndex reads and validates a snapshot's index block and footer.
func readSnapIndex(f *os.File) (raw []byte, offs []int32, watermark uint64, err error) {
	corrupt := fmt.Errorf("%w: shard snapshot %s", errCorrupt, f.Name())
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, 0, err
	}
	if fi.Size() < snapFooterLen {
		return nil, nil, 0, corrupt
	}
	var foot [snapFooterLen]byte
	if _, err := f.ReadAt(foot[:], fi.Size()-snapFooterLen); err != nil {
		return nil, nil, 0, err
	}
	if binary.BigEndian.Uint32(foot[20:]) != snapMagic {
		return nil, nil, 0, corrupt
	}
	idxOff := int64(binary.BigEndian.Uint64(foot[0:]))
	watermark = binary.BigEndian.Uint64(foot[8:])
	sum := binary.BigEndian.Uint32(foot[16:])
	if idxOff < 0 || idxOff > fi.Size()-snapFooterLen {
		return nil, nil, 0, corrupt
	}
	raw = make([]byte, fi.Size()-snapFooterLen-idxOff)
	if _, err := f.ReadAt(raw, idxOff); err != nil {
		return nil, nil, 0, err
	}
	if crc32.ChecksumIEEE(raw) != sum {
		return nil, nil, 0, corrupt
	}
	// One scan for entry boundaries; no per-record allocation.
	for off := 0; off < len(raw); {
		if off+4 > len(raw) {
			return nil, nil, 0, corrupt
		}
		nameLen := int(binary.BigEndian.Uint32(raw[off:]))
		end := off + 4 + nameLen + 12
		if nameLen < 0 || end > len(raw) {
			return nil, nil, 0, corrupt
		}
		offs = append(offs, int32(off))
		off = end
	}
	return raw, offs, watermark, nil
}

// indexEntry decodes the base index entry starting at raw[off].
func indexEntry(raw []byte, off int32) (name []byte, loc recLoc) {
	nameLen := binary.BigEndian.Uint32(raw[off:])
	name = raw[off+4 : off+4+int32(nameLen)]
	rest := raw[off+4+int32(nameLen):]
	loc = recLoc{
		seg:  0,
		off:  int64(binary.BigEndian.Uint64(rest)),
		flen: int32(binary.BigEndian.Uint32(rest[8:])),
	}
	return name, loc
}

// baseLookup binary-searches the snapshot index for name without allocating.
func (sh *shard) baseLookup(name string) (recLoc, bool) {
	lo, hi := 0, len(sh.baseOffs)
	for lo < hi {
		mid := (lo + hi) / 2
		n, _ := indexEntry(sh.baseRaw, sh.baseOffs[mid])
		if string(n) < name { // comparison only; no allocation (Go optimizes string(b) in comparisons)
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(sh.baseOffs) {
		n, loc := indexEntry(sh.baseRaw, sh.baseOffs[lo])
		if string(n) == name {
			return loc, true
		}
	}
	return recLoc{}, false
}

// lookup resolves a name through the overlay, then the base index.
func (sh *shard) lookup(name string) (recLoc, bool) {
	if loc, ok := sh.over[name]; ok {
		if loc.tomb {
			return recLoc{}, false
		}
		return loc, true
	}
	return sh.baseLookup(name)
}

// commit appends recs (deletions when tomb) to the active segment with one
// write, syncs once, and publishes the new locations and resident values —
// on the caller's goroutine, under commitMu, so no two commits of the shard
// overlap. Then it seals a full segment and starts a due compaction. On
// failure nothing is published and the segment rolls back to its last good
// offset so later commits are not hidden behind torn bytes — sibling shards
// are untouched by construction.
func (sh *shard) commit(recs []Record, tomb bool) error {
	sh.commitMu.Lock()
	defer sh.commitMu.Unlock()
	if sh.closed {
		return ErrClosed
	}
	if sh.broken != nil {
		return fmt.Errorf("%w: %w", errLogBroken, sh.broken)
	}
	kind := byte(kindSet)
	if tomb {
		kind = kindTomb
	}
	frames, pending := sh.frames[:0], sh.pending[:0]
	for _, rec := range recs {
		start := len(frames)
		frames = appendFrame(frames, kind, rec.Name, rec.Data)
		// The resident cache keeps the value past the call: copy it, once.
		pending = append(pending, pendingRec{name: rec.Name, data: bytes.Clone(rec.Data), loc: recLoc{
			seg: sh.activeID, off: sh.good + int64(start), flen: int32(len(frames) - start), tomb: tomb}})
	}
	_, err := sh.active.Write(frames)
	if err == nil {
		err = sh.sync()
	}
	if err == nil {
		sh.d.syncs.Add(1)
		sh.d.batches.Add(1)
		sh.d.appended.Add(int64(len(pending)))

		sh.mu.Lock()
		sh.good += int64(len(frames))
		for _, p := range pending {
			sh.over[p.name] = p.loc
			if p.loc.tomb {
				sh.d.tombstones.Add(1)
				sh.dropResident(p.name)
			} else {
				sh.putResident(p.name, p.data)
			}
		}
		sh.mu.Unlock()
		sh.maybeSeal()
	} else if terr := sh.active.Truncate(sh.good); terr != nil {
		// The tail is suspect and cannot be rolled back: the log is wedged
		// and every future store reports it.
		sh.broken = terr
	} else if _, serr := sh.active.Seek(sh.good, io.SeekStart); serr != nil {
		sh.broken = serr
	}
	// Keep the scratch for the next commit, but neither an outsized buffer
	// nor references to values the resident cache may evict.
	clear(pending)
	sh.pending = pending
	if cap(frames) > 1<<20 {
		frames = nil
	}
	sh.frames = frames
	sh.maybeCompact()
	return err
}

func (sh *shard) sync() error {
	if hook := sh.d.syncHook; hook != nil {
		return hook(sh.id)
	}
	return sh.active.Sync()
}

// maybeSeal retires the active segment once it passes the size threshold.
// Sealed segments keep their file handles open so cold loads survive a
// concurrent compaction unlinking the path. The successor is created (and
// its name made durable) off the lock; if that fails the shard keeps its
// valid active segment and refuses further commits.
func (sh *shard) maybeSeal() {
	if sh.good < sh.d.cfg.segmentBytes {
		return
	}
	next, err := sh.createSegment(sh.activeID + 1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil {
		sh.broken = err
		return
	}
	sh.sealed = append(sh.sealed, &segInfo{id: sh.activeID, f: sh.active, size: sh.good})
	sh.sealedSize += sh.good
	sh.active, sh.activeID, sh.good = next, sh.activeID+1, 0
}

// maybeCompact launches a background compaction when the sealed chain trips
// the size trigger.
func (sh *shard) maybeCompact() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.compacting || sh.broken != nil || len(sh.sealed) == 0 || sh.sealedSize < sh.d.cfg.compactBytes {
		return
	}
	segs := make([]*segInfo, len(sh.sealed))
	copy(segs, sh.sealed)
	sh.compacting = true
	sh.compWG.Add(1)
	go sh.compact(segs)
}

// compact merges the current snapshot and the given sealed segments into a
// new snapshot whose watermark covers them, swaps it in, and deletes the
// consumed segments. It runs concurrently with serving: the inputs are
// immutable, and only the swap (rename + index/overlay fixup + deletion)
// takes the shard lock. On any error the compaction is abandoned — the
// segments simply survive until the next attempt.
func (sh *shard) compact(segs []*segInfo) {
	defer sh.compWG.Done()
	watermark := segs[len(segs)-1].id
	tmpName, raw, offs, err := sh.writeSnapshot(segs, watermark)
	if err != nil {
		sh.abandonCompaction()
		return
	}
	if hook := sh.d.compactHook; hook != nil && !hook(sh.id, "written") {
		sh.abandonCompaction()
		return
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	final := filepath.Join(sh.dir, shardSnap)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		sh.compacting = false
		return
	}
	syncDir(sh.dir)
	if hook := sh.d.compactHook; hook != nil && !hook(sh.id, "renamed") {
		// Simulated crash after the commit point: stop before the in-memory
		// swap. The old snapshot handle still reads the old (now unlinked)
		// file, so the in-memory state stays consistent; compacting stays
		// true so no further compaction races the simulated wreckage.
		return
	}
	newF, err := os.Open(final)
	if err != nil {
		sh.compacting = false
		return
	}
	if sh.snapF != nil {
		sh.snapF.Close()
	}
	sh.snapF, sh.baseRaw, sh.baseOffs, sh.watermark = newF, raw, offs, watermark
	// Every overlay entry the new snapshot covers is now base state (or, for
	// tombstones, gone entirely).
	for name, loc := range sh.over {
		if loc.seg <= watermark {
			delete(sh.over, name)
		}
	}
	for i, seg := range segs {
		seg.f.Close()
		os.Remove(sh.segPath(seg.id))
		if hook := sh.d.compactHook; i == 0 && hook != nil && !hook(sh.id, "deleted") {
			return
		}
	}
	sh.sealed = sh.sealed[len(segs):]
	sh.sealedSize = 0
	for _, seg := range sh.sealed {
		sh.sealedSize += seg.size
	}
	sh.compacting = false
	sh.d.compactions.Add(1)
}

func (sh *shard) abandonCompaction() {
	sh.mu.Lock()
	sh.compacting = false
	sh.mu.Unlock()
}

// writeSnapshot writes the merge of the current snapshot and segs to a temp
// file in the shard directory: data frames in name order (so a sequential
// scan of the sorted index preads forward), then the index block, then the
// footer. It returns the temp path and the new index for the in-memory swap.
//
// Nothing is re-parsed into records: the index and the overlay already say
// where each name's latest frame lies, so the merge walks those two sorted
// lists and copies the winning frames — each checked against its CRC and its
// name on the way, so damage fails the compaction instead of being laundered
// into a fresh snapshot. The old snapshot streams in offset order (which is
// name order); the sealed segments, bounded by the compaction threshold, are
// read whole. An overlay entry newer than segs (a later segment holds the
// name's latest frame) is left to replay and to the next compaction; the
// older copy this snapshot may carry for it stays shadowed by that entry.
func (sh *shard) writeSnapshot(segs []*segInfo, watermark uint64) (tmpName string, raw []byte, offs []int32, err error) {
	type entry struct {
		name string
		loc  recLoc
	}
	sh.mu.Lock()
	snapF, baseRaw, baseOffs := sh.snapF, sh.baseRaw, sh.baseOffs
	newer := make([]entry, 0, len(sh.over))
	for name, loc := range sh.over {
		if loc.seg <= watermark {
			newer = append(newer, entry{name, loc})
		}
	}
	sh.mu.Unlock()
	slices.SortFunc(newer, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	logs := make(map[uint64][]byte, len(segs))
	for _, seg := range segs {
		if logs[seg.id], err = readSegment(seg.f, seg.size); err != nil {
			return "", nil, nil, err
		}
	}

	tmp, err := os.CreateTemp(sh.dir, "snap-tmp-*")
	if err != nil {
		return "", nil, nil, err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 64<<10)
	raw = make([]byte, 0, len(baseRaw)+32*len(newer))
	offs = make([]int32, 0, len(baseOffs)+len(newer))
	var dataLen int64
	// put copies one frame to the data region and indexes it under the name
	// it carries, which it returns for the caller to hold against the name
	// the frame was looked up by.
	put := func(frame []byte) (name []byte, err error) {
		kind, name, _, flen := parseFrame(frame)
		if flen != len(frame) || kind != kindSet {
			return nil, errCorrupt
		}
		offs = append(offs, int32(len(raw)))
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(name)))
		raw = append(raw, name...)
		raw = binary.BigEndian.AppendUint64(raw, uint64(dataLen))
		raw = binary.BigEndian.AppendUint32(raw, uint32(len(frame)))
		dataLen += int64(len(frame))
		_, err = w.Write(frame)
		return name, err
	}

	var old *bufio.Reader // the current snapshot's data region, read forward
	var oldPos int64
	var frame, name []byte
	if snapF != nil {
		old = bufio.NewReaderSize(io.NewSectionReader(snapF, 0, math.MaxInt64), 64<<10)
	}
	for bi, ni := 0, 0; bi < len(baseOffs) || ni < len(newer); {
		var baseName []byte
		var baseLoc recLoc
		if bi < len(baseOffs) {
			baseName, baseLoc = indexEntry(baseRaw, baseOffs[bi])
		}
		if bi < len(baseOffs) && (ni == len(newer) || string(baseName) < newer[ni].name) {
			// Only the snapshot has this name: carry its frame over.
			bi++
			if _, err = old.Discard(int(baseLoc.off - oldPos)); err != nil {
				return "", nil, nil, err
			}
			frame = slices.Grow(frame[:0], int(baseLoc.flen))[:baseLoc.flen]
			if _, err = io.ReadFull(old, frame); err != nil {
				return "", nil, nil, err
			}
			oldPos = baseLoc.off + int64(baseLoc.flen)
			if name, err = put(frame); err == nil && !bytes.Equal(name, baseName) {
				err = errCorrupt
			}
			if err != nil {
				return "", nil, nil, err
			}
			continue
		}
		if bi < len(baseOffs) && string(baseName) == newer[ni].name {
			bi++ // superseded (or deleted) by the segments
		}
		e := newer[ni]
		ni++
		if e.loc.tomb {
			continue
		}
		if name, err = put(logs[e.loc.seg][e.loc.off : e.loc.off+int64(e.loc.flen)]); err == nil && string(name) != e.name {
			err = errCorrupt
		}
		if err != nil {
			return "", nil, nil, err
		}
	}

	if _, err = w.Write(raw); err != nil {
		return "", nil, nil, err
	}
	var foot [snapFooterLen]byte
	binary.BigEndian.PutUint64(foot[0:], uint64(dataLen))
	binary.BigEndian.PutUint64(foot[8:], watermark)
	binary.BigEndian.PutUint32(foot[16:], crc32.ChecksumIEEE(raw))
	binary.BigEndian.PutUint32(foot[20:], snapMagic)
	if _, err = w.Write(foot[:]); err != nil {
		return "", nil, nil, err
	}
	if err = w.Flush(); err != nil {
		return "", nil, nil, err
	}
	if err = tmp.Sync(); err != nil {
		return "", nil, nil, err
	}
	if err = tmp.Close(); err != nil {
		return "", nil, nil, err
	}
	return tmp.Name(), raw, offs, nil
}

// Store implements Storage: a single-record group.
func (d *ShardedDisk) Store(record string, data []byte) error {
	return d.StoreBatch([]Record{{Name: record, Data: data}})
}

// StoreBatch implements Storage. Records are partitioned onto their shards
// (batch order preserved within a shard, so a repeated name keeps
// last-wins) and each shard commits its slice; the call returns after every
// shard has synced. On error none of the batch is acknowledged — per the
// Storage contract, individual records may or may not have become durable,
// and each failed shard rolls back independently.
func (d *ShardedDisk) StoreBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	return d.submit(recs, false)
}

// Delete durably removes a record: a tombstone frame is appended to the
// record's shard (committed like any store), the record disappears from
// Retrieve and Records, and the next compaction of that shard drops the
// dead bytes from its snapshot. Deleting an absent record is a no-op that
// still logs a tombstone. Implements Deleter.
func (d *ShardedDisk) Delete(record string) error {
	return d.submit([]Record{{Name: record}}, true)
}

// submit commits recs (deletions when tomb) on the caller's goroutine. A
// batch that spans shards is partitioned, and its shards commit
// concurrently: one goroutine per shard beyond the first, joined before
// submit returns, so the eight-shard preset keeps its parallel fsyncs.
func (d *ShardedDisk) submit(recs []Record, tomb bool) error {
	if len(d.shards) == 1 {
		return d.shards[0].commit(recs, tomb)
	}
	type group struct {
		sh   *shard
		recs []Record
		err  error
	}
	var groups []group
	for _, r := range recs {
		sh := d.shardFor(r.Name)
		i := slices.IndexFunc(groups, func(g group) bool { return g.sh == sh })
		if i < 0 {
			i = len(groups)
			groups = append(groups, group{sh: sh})
		}
		groups[i].recs = append(groups[i].recs, r)
	}
	var wg sync.WaitGroup
	for i := range groups[1:] {
		g := &groups[1+i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.err = g.sh.commit(g.recs, tomb)
		}()
	}
	groups[0].err = groups[0].sh.commit(groups[0].recs, tomb)
	wg.Wait()
	for _, g := range groups {
		if g.err != nil {
			return g.err
		}
	}
	return nil
}

// Retrieve implements Storage. A resident value is served from memory; a
// cold one is read from its snapshot or segment frame under the shard lock
// (the lock pins the file handles against a concurrent compaction swap) and
// promoted into the resident cache.
func (d *ShardedDisk) Retrieve(record string) ([]byte, bool, error) {
	sh := d.shardFor(record)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, false, ErrClosed
	}
	if v, ok := sh.res[record]; ok {
		sh.touchResident(v)
		cp := make([]byte, len(v.data))
		copy(cp, v.data)
		return cp, true, nil
	}
	loc, ok := sh.lookup(record)
	if !ok {
		return nil, false, nil
	}
	data, err := sh.readFrame(loc, record)
	if err != nil {
		return nil, false, err
	}
	sh.putResident(record, data)
	return bytes.Clone(data), true, nil
}

// readFrame cold-loads one frame's value, in a buffer the caller owns.
// Caller holds sh.mu.
func (sh *shard) readFrame(loc recLoc, want string) ([]byte, error) {
	var f *os.File
	switch {
	case loc.seg == 0:
		f = sh.snapF
	case loc.seg == sh.activeID:
		f = sh.active
	default:
		for _, seg := range sh.sealed {
			if seg.id == loc.seg {
				f = seg.f
				break
			}
		}
	}
	if f == nil {
		return nil, fmt.Errorf("stable: record %q points at missing segment %d", want, loc.seg)
	}
	buf := make([]byte, loc.flen)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("stable: cold read %q: %w", want, err)
	}
	kind, name, data, flen := parseFrame(buf)
	if flen != len(buf) || kind != kindSet || string(name) != want {
		return nil, fmt.Errorf("%w: cold read of %q finds no such frame at segment %d offset %d", errCorrupt, want, loc.seg, loc.off)
	}
	return data, nil
}

// Records implements Storage: Scan's names across all shards, sorted.
func (d *ShardedDisk) Records(prefix string) ([]string, error) {
	return sortedScan(d, prefix)
}

// Scan implements Scanner: shards stream one at a time under their own
// locks, each walking its footer-index entries (names only — record values
// are never read or paged in) plus its non-tombstone overlay entries, so no
// caller ever holds the full namespace in memory. Order is per-shard index
// order, not globally sorted; fn must not call back into the store (Retrieve
// takes the same shard lock).
func (d *ShardedDisk) Scan(prefix string, fn func(string) error) error {
	for _, sh := range d.shards {
		sh.mu.Lock()
		err := sh.scanLocked(prefix, fn)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// scanLocked streams one shard's live record names. Caller holds sh.mu.
func (sh *shard) scanLocked(prefix string, fn func(string) error) error {
	if sh.closed {
		return ErrClosed
	}
	for _, off := range sh.baseOffs {
		nb, _ := indexEntry(sh.baseRaw, off)
		if !strings.HasPrefix(string(nb), prefix) {
			continue
		}
		name := string(nb)
		if _, shadowed := sh.over[name]; shadowed {
			continue
		}
		if err := fn(name); err != nil {
			return err
		}
	}
	for name, loc := range sh.over {
		if !loc.tomb && strings.HasPrefix(name, prefix) {
			if err := fn(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements Storage. Shard by shard, it takes the commit mutex — a
// commit in flight finishes — and marks the shard closed, waits for an
// in-flight compaction, and, when the shard holds enough uncompacted bytes,
// folds its segments into the snapshot so the next open is an index read.
// Close is idempotent; content remains retrievable by a new open of the
// same directory.
func (d *ShardedDisk) Close() error {
	for _, sh := range d.shards {
		sh.commitMu.Lock()
		if !sh.closed {
			sh.mu.Lock()
			sh.closed = true
			sh.mu.Unlock()
			sh.compWG.Wait()
			sh.closeCompact()
			sh.closeFiles()
		}
		sh.commitMu.Unlock()
	}
	return nil
}

// closeCompact is the clean-shutdown compaction: seal the active segment
// and merge everything into the snapshot, provided the shard holds at least
// closeCompactBytes of uncompacted data. Runs under commitMu, after any
// background compaction has exited.
func (sh *shard) closeCompact() {
	min := sh.d.cfg.closeCompactBytes
	if min == 0 || sh.broken != nil {
		return
	}
	if sh.sealedSize+sh.good < min {
		return
	}
	if sh.good > 0 {
		sh.sealed = append(sh.sealed, &segInfo{id: sh.activeID, f: sh.active, size: sh.good})
		sh.sealedSize += sh.good
		sh.active = nil
	}
	if len(sh.sealed) == 0 {
		return
	}
	sh.compacting = true
	sh.compWG.Add(1)
	sh.compact(sh.sealed)
}

func (sh *shard) closeFiles() {
	if sh.active != nil {
		sh.active.Close()
		sh.active = nil
	}
	for _, seg := range sh.sealed {
		seg.f.Close()
	}
	sh.sealed = nil
	if sh.snapF != nil {
		sh.snapF.Close()
		sh.snapF = nil
	}
}

// --- resident-value LRU (caller holds sh.mu) ---

// putResident caches a value the caller hands over (it must not alias a
// buffer anyone else writes), evicting the least recently used beyond the
// cap.
func (sh *shard) putResident(name string, data []byte) {
	if v, ok := sh.res[name]; ok {
		v.data = data
		sh.touchResident(v)
		return
	}
	v := &resVal{name: name, data: data}
	sh.res[name] = v
	sh.lruPushFront(v)
	for cap := sh.d.cfg.residentRecords; cap > 0 && len(sh.res) > cap; {
		sh.dropResident(sh.lruTail.name)
		sh.d.evictions.Add(1)
	}
}

func (sh *shard) dropResident(name string) {
	v, ok := sh.res[name]
	if !ok {
		return
	}
	delete(sh.res, name)
	sh.lruUnlink(v)
}

func (sh *shard) touchResident(v *resVal) {
	if sh.lruHead == v {
		return
	}
	sh.lruUnlink(v)
	sh.lruPushFront(v)
}

func (sh *shard) lruPushFront(v *resVal) {
	v.prev = nil
	v.next = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = v
	}
	sh.lruHead = v
	if sh.lruTail == nil {
		sh.lruTail = v
	}
}

func (sh *shard) lruUnlink(v *resVal) {
	if v.prev != nil {
		v.prev.next = v.next
	} else {
		sh.lruHead = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else {
		sh.lruTail = v.prev
	}
	v.prev, v.next = nil, nil
}

// --- counters ---

// Shards returns the persisted shard count.
func (d *ShardedDisk) Shards() int { return len(d.shards) }

// Syncs returns the number of per-shard commit syncs issued — the engine's
// fsync bill. Compare against AppendedRecords to read off the
// amortization factor.
func (d *ShardedDisk) Syncs() int64 { return d.syncs.Load() }

// Batches returns the number of commits made across all shards: one per
// shard a Store, StoreBatch or Delete call touched.
func (d *ShardedDisk) Batches() int64 { return d.batches.Load() }

// AppendedRecords returns the number of frames appended to segment files.
func (d *ShardedDisk) AppendedRecords() int64 { return d.appended.Load() }

// Compactions returns the number of completed shard compactions (including
// the clean-shutdown pass).
func (d *ShardedDisk) Compactions() int64 { return d.compactions.Load() }

// Tombstones returns the number of tombstone frames durably appended by
// Delete.
func (d *ShardedDisk) Tombstones() int64 { return d.tombstones.Load() }

// Evictions returns the number of resident values dropped by the LRU.
func (d *ShardedDisk) Evictions() int64 { return d.evictions.Load() }

// ResidentValues returns the number of record values currently held in
// memory across all shards — the quantity residentRecords bounds.
func (d *ShardedDisk) ResidentValues() int {
	total := 0
	for _, sh := range d.shards {
		sh.mu.Lock()
		total += len(sh.res)
		sh.mu.Unlock()
	}
	return total
}

// --- frame codec ---

// appendFrame appends one record to buf as a CRC-framed entry:
//
//	u32 payload length | u32 CRC32(payload) | payload
//	payload = u8 kind | u32 name length | name | data
func appendFrame(buf []byte, kind byte, name string, data []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameMeta+len(name)+len(data)))
	buf = append(buf, 0, 0, 0, 0) // the CRC, once the payload is in place
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = append(buf, data...)
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(buf[start+frameHeader:]))
	return buf
}

// parseFrame is the one frame reader. It decodes the frame that starts at
// log[0] and returns its parts, which alias log, and its length. flen is 0
// when log does not start with a well-formed frame: too short for the length
// it claims (a length field is never trusted further than the bytes at
// hand), failing its CRC, or with a payload that is not kind + name + data.
func parseFrame(log []byte) (kind byte, name, data []byte, flen int) {
	if len(log) < frameHeader+frameMeta {
		return 0, nil, nil, 0
	}
	n := uint64(binary.BigEndian.Uint32(log[0:]))
	if n < frameMeta || n > uint64(len(log)-frameHeader) {
		return 0, nil, nil, 0
	}
	payload := log[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(log[4:]) {
		return 0, nil, nil, 0
	}
	nameEnd := frameMeta + uint64(binary.BigEndian.Uint32(payload[1:]))
	if payload[0] > kindTomb || nameEnd > n {
		return 0, nil, nil, 0
	}
	return payload[0], payload[frameMeta:nameEnd], payload[nameEnd:], frameHeader + int(n)
}

// replayFrames states the recovery contract of the log, once: it walks log
// frame by frame, handing apply each well-formed frame's parts (aliasing
// log), start offset and length, and stops at the first frame that is not —
// it trusts everything before that frame, applies nothing after it, and
// never invents data. The returned offset is where it stopped: len(log) for
// a clean log, else the cutoff of a torn tail — what a crash in the middle
// of an unacknowledged group commit leaves behind.
func replayFrames(log []byte, apply func(kind byte, name, data []byte, off int64, flen int32)) int64 {
	good := 0
	for good < len(log) {
		kind, name, data, flen := parseFrame(log[good:])
		if flen == 0 {
			break
		}
		apply(kind, name, data, int64(good), int32(flen))
		good += flen
	}
	return int64(good)
}
