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

// LogDisk is the durable log engine behind -disk wal: one chain of
// CRC-framed, append-only segments, background compaction into an indexed
// snapshot, an index-only reopen and a bounded resident set — the paper's
// stable storage (§II) as one log, replayed in order (docs/adr/0021).
//
//   - The snapshot ends in a sorted footer index (name → frame offset), so
//     an open reads the index and the small segment tail — not the values.
//     What must be replayed before the store serves again is bounded by the
//     compaction policy, independent of namespace size.
//   - Values are resident only while hot: a Retrieve promotes the value it
//     cold-loads from its snapshot or segment frame into an LRU of at most
//     residentRecords values, and a store replaces a resident value in
//     place. A stored value that is not resident stays on disk: a node keeps
//     the registers it serves in its own memory, so caching its logs again
//     would only churn the LRU. The index (names + offsets) is the only
//     per-record memory that scales with the namespace.
//   - Registers can be deleted: Delete appends a tombstone frame, and
//     compaction drops tombstoned records from the next snapshot, so a
//     churning namespace does not grow without bound.
//   - Compaction merges the snapshot and the sealed segments into a new
//     snapshot concurrently with serving (only the active segment takes new
//     appends), triggered by sealed-segment size and by a final pass on
//     clean Close. The rename of the new snapshot is the atomic commit
//     point: its watermark records the highest segment it covers, so a crash
//     anywhere between temp-write, rename, and segment deletion recovers to
//     a consistent state.
//
// Layout under dir — the one-shard layout of the retired multi-shard engine,
// so a store it wrote for -disk wal opens as is:
//
//	MANIFEST            — "1", written once at creation
//	shard-0000/
//	  snapshot.rec      — data frames + sorted index + footer (watermark)
//	  seg-00000001.wal  — CRC-framed append-only segments; highest id active
//
// Store/StoreBatch/Delete commit on the caller's goroutine (docs/adr/0019):
// the call's records are one write and one fdatasync of the active segment,
// under the commit mutex, and are acknowledged — and become visible to
// Retrieve — only after it. Gathering concurrent stores into one sync is the
// caller's business: a node's logger is the one caller that matters, and it
// hands over whole groups. On error none of the call is acknowledged (the
// Storage contract) and the segment rolls back to its last good offset.
type LogDisk struct {
	dir string // the segment chain's directory, shard-0000 under the root
	cfg engineConfig

	// commitMu serializes commits: its holder appends to and syncs the
	// active segment off mu (readers only ever pread below the durable good
	// offset), seals it, and owns the scratch below. Close takes it to let
	// an in-flight commit finish.
	commitMu sync.Mutex

	// mu guards everything below plus all reads of the file handles; closed,
	// active, activeID and good change only under commitMu too, so its holder
	// reads them without mu. broken is also set by a compaction, which does
	// not hold commitMu, so every access to it holds mu.
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

	syncs       atomic.Int64
	batches     atomic.Int64
	appended    atomic.Int64
	compactions atomic.Int64
	tombstones  atomic.Int64
	evictions   atomic.Int64
}

var (
	_ Storage = (*LogDisk)(nil)
	_ Deleter = (*LogDisk)(nil)
)

// engineConfig is everything one opening of the engine can differ in.
// Production passes preset(); tests copy it, shrink its thresholds so seals
// and compactions happen after a handful of stores, and set the hooks.
type engineConfig struct {
	// residentRecords caps the record values kept in memory; evicted values
	// cold-load on Retrieve.
	residentRecords int
	// segmentBytes seals the active segment once it grows past this size.
	segmentBytes int64
	// compactBytes triggers a compaction when the sealed segments exceed
	// this many bytes.
	compactBytes int64
	// closeCompactBytes runs a final compaction on a clean Close when the
	// log holds at least this many uncompacted bytes (0: never), so a
	// cleanly restarted process reopens from the index alone. A crash skips
	// it, and replay stays bounded by the size trigger above.
	closeCompactBytes int64

	// syncHook, when set by a test, replaces every fsync the engine issues —
	// segment, log directory, manifest temp file, snapshot temp file — with
	// a call on the synced path, to observe syncs or fail selected ones.
	syncHook func(path string) error
	// compactHook, when set by a test, is called at each stage of a
	// compaction ("written", "renamed", "deleted"); returning false abandons
	// the compaction at that point without cleaning up — the file-level
	// state a SIGKILL at that instant would leave behind.
	compactHook func(stage string) bool
}

// preset is the production tuning: 4096 resident values, and what a crash
// leaves to replay is at most the sealed chain (compactBytes plus one
// segment) and the active segment.
func preset() engineConfig {
	return engineConfig{
		residentRecords:   4096,
		segmentBytes:      256 << 10,
		compactBytes:      1 << 20,
		closeCompactBytes: 64 << 10,
	}
}

// sync makes f durable: its data, or a directory's entries.
func (cfg *engineConfig) sync(f *os.File) error {
	if cfg.syncHook != nil {
		return cfg.syncHook(f.Name())
	}
	return f.Sync()
}

// syncDir makes the entries of dir durable: a file created or renamed in it
// survives a crash only after this returns nil.
func (cfg *engineConfig) syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = cfg.sync(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

const (
	manifestName = "MANIFEST"
	logDirName   = "shard-0000"
	snapName     = "snapshot.rec"

	// Frame kinds: a stored value or a tombstone.
	kindSet  = 0
	kindTomb = 1

	// frameHeader is the per-frame overhead: payload length + CRC32.
	frameHeader = 8
	// frameMeta is the payload overhead before the data: kind byte + name
	// length.
	frameMeta = 5

	// snapFooterLen is the fixed trailer of a snapshot:
	// u64 index offset | u64 watermark | u32 CRC32(index) | u32 magic.
	snapFooterLen = 24
	snapMagic     = 0x52534e50 // "RSNP"
)

var (
	// errLogBroken wraps the write failure that wedged the log.
	errLogBroken = errors.New("stable: log broken by earlier write failure")
	// errCorrupt is damage to bytes that were written in full and made
	// durable before anything depended on them — a snapshot, or a sealed
	// segment. Unlike a torn tail it cannot be cut off without dropping
	// acknowledged records, so it fails the open.
	errCorrupt = errors.New("stable: corrupted store")
)

// recLoc locates one record's latest frame: segment id (0 = the snapshot),
// frame start offset, and full frame length.
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
// it is durable. data aliases the caller's record until the commit returns.
type pendingRec struct {
	name string
	data []byte
	loc  recLoc
}

// resVal is one resident value in the LRU.
type resVal struct {
	name string
	data []byte
	prev *resVal
	next *resVal
}

// openEngine opens (creating if necessary) the store rooted at dir: it reads
// the snapshot's footer index and replays only the segment tail, so open
// time is bounded by the compaction policy rather than the namespace size.
func openEngine(dir string, cfg engineConfig) (*LogDisk, error) {
	if dir == "" {
		return nil, errors.New("stable: the log engine (wal) needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stable: create dir: %w", err)
	}
	d := &LogDisk{
		dir: filepath.Join(dir, logDirName), cfg: cfg,
		over: make(map[string]recLoc),
		res:  make(map[string]*resVal),
	}
	if err := d.loadManifest(dir); err != nil {
		return nil, err
	}
	if err := d.open(); err != nil {
		d.closeFiles()
		return nil, err
	}
	return d, nil
}

// loadManifest checks root's manifest, creating it for a new store. It
// refuses, touching nothing, a directory written by a retired engine: the
// single-log wal (wal.log, a top-level snapshot.rec), the file backend (one
// <hex>.rec per record), or the eight-shard sharded preset (a manifest that
// pins more than one shard). Opening an empty log beside any of them would
// boot a node amnesiac over someone's data.
func (d *LogDisk) loadManifest(root string) error {
	path := filepath.Join(root, manifestName)
	data, err := os.ReadFile(path)
	if err == nil {
		n, perr := strconv.Atoi(strings.TrimSpace(string(data)))
		if perr != nil || n < 1 {
			return fmt.Errorf("stable: corrupt manifest %q", string(data))
		}
		if n > 1 {
			return fmt.Errorf("stable: %s holds a %d-shard store of the retired eight-shard sharded preset, which this version cannot read", root, n)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("stable: read manifest: %w", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("stable: read dir: %w", err)
	}
	for _, e := range entries {
		switch old := e.Name(); {
		case old == "wal.log" || old == snapName:
			return fmt.Errorf("stable: %s holds %s in the retired single-log wal format, which this version cannot read", root, old)
		case strings.HasSuffix(old, ".rec"):
			return fmt.Errorf("stable: %s holds %s, a record of the retired file backend (one file per record), which this version cannot read", root, old)
		}
	}
	// A new store: one sync of root makes the log directory's entry and the
	// manifest durable together. On any failure neither is left behind.
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return fmt.Errorf("stable: create log dir: %w", err)
	}
	tmp, err := os.CreateTemp(root, "manifest-*")
	if err == nil {
		_, err = tmp.WriteString("1\n")
		if err == nil {
			err = d.cfg.sync(tmp)
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
		if err == nil {
			err = d.cfg.syncDir(root)
		}
		os.Remove(tmp.Name())
	}
	if err != nil {
		os.Remove(path)
		os.Remove(d.dir)
		return fmt.Errorf("stable: write manifest: %w", err)
	}
	return nil
}

// open loads the log: stray compaction temp files are removed, the
// snapshot's footer index is mapped (no values), segments covered by the
// snapshot watermark are garbage from an interrupted compaction and are
// deleted, and the remaining segment tail replays into the overlay. Only the
// highest segment can end in an unacknowledged group — a segment is sealed
// right after a group in it was acknowledged — so only there is a malformed
// frame a torn tail to cut off; anywhere else it hides acknowledged records
// behind it and fails the open. The highest segment becomes the active one.
func (d *LogDisk) open() error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return fmt.Errorf("stable: create log dir: %w", err)
	}
	if strays, err := filepath.Glob(filepath.Join(d.dir, "snap-tmp-*")); err == nil {
		for _, s := range strays {
			os.Remove(s)
		}
	}
	if err := d.openSnapshot(); err != nil {
		return err
	}

	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("stable: list log dir: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.wal", &id); err == nil {
			if id <= d.watermark {
				// Covered by the snapshot: leftover input of a compaction
				// that crashed between rename and deletion.
				os.Remove(d.segPath(id))
				continue
			}
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)

	for i, id := range ids {
		f, err := os.OpenFile(d.segPath(id), os.O_RDWR, 0o644)
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
			d.over[string(name)] = recLoc{seg: id, off: off, flen: flen, tomb: kind == kindTomb}
		})
		if i < len(ids)-1 {
			if good < fi.Size() {
				f.Close()
				return fmt.Errorf("%w: sealed segment %s has a malformed frame at offset %d", errCorrupt, d.segPath(id), good)
			}
			d.sealed = append(d.sealed, &segInfo{id: id, f: f, size: good})
			d.sealedSize += good
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
		d.active, d.activeID, d.good = f, id, good
	}
	if d.active == nil {
		// No segment survives (new store, or a clean Close compacted them
		// all); ids restart above the watermark.
		f, err := d.createSegment(d.watermark + 1)
		if err != nil {
			return err
		}
		d.active, d.activeID = f, d.watermark+1
	}
	return nil
}

func (d *LogDisk) segPath(id uint64) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%08d.wal", id))
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
// group acknowledged in it must not vanish with the directory entry. If the
// name cannot be made durable, the file is removed and no group goes there.
func (d *LogDisk) createSegment(id uint64) (*os.File, error) {
	f, err := os.OpenFile(d.segPath(id), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("stable: create segment: %w", err)
	}
	if err := d.cfg.syncDir(d.dir); err != nil {
		f.Close()
		os.Remove(d.segPath(id))
		return nil, fmt.Errorf("stable: sync log dir for new segment: %w", err)
	}
	return f, nil
}

// openSnapshot maps the snapshot's footer index without touching the data
// region. A malformed snapshot is real corruption — it was written in full
// and renamed atomically — and fails the open.
func (d *LogDisk) openSnapshot() error {
	f, err := os.Open(filepath.Join(d.dir, snapName))
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
	d.snapF, d.baseRaw, d.baseOffs, d.watermark = f, raw, offs, wm
	return nil
}

// readSnapIndex reads and validates a snapshot's index block and footer.
func readSnapIndex(f *os.File) (raw []byte, offs []int32, watermark uint64, err error) {
	corrupt := fmt.Errorf("%w: snapshot %s", errCorrupt, f.Name())
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
func (d *LogDisk) baseLookup(name string) (recLoc, bool) {
	lo, hi := 0, len(d.baseOffs)
	for lo < hi {
		mid := (lo + hi) / 2
		n, _ := indexEntry(d.baseRaw, d.baseOffs[mid])
		if string(n) < name { // comparison only; no allocation (Go optimizes string(b) in comparisons)
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.baseOffs) {
		n, loc := indexEntry(d.baseRaw, d.baseOffs[lo])
		if string(n) == name {
			return loc, true
		}
	}
	return recLoc{}, false
}

// lookup resolves a name through the overlay, then the base index.
func (d *LogDisk) lookup(name string) (recLoc, bool) {
	if loc, ok := d.over[name]; ok {
		if loc.tomb {
			return recLoc{}, false
		}
		return loc, true
	}
	return d.baseLookup(name)
}

// commit appends recs (deletions when tomb) to the active segment with one
// write, syncs once, and publishes the new locations and resident values —
// on the caller's goroutine, under commitMu, so no two commits overlap. Then
// it seals a full segment and starts a due compaction. On failure nothing is
// published and the segment rolls back to its last good offset so later
// commits are not hidden behind torn bytes.
func (d *LogDisk) commit(recs []Record, tomb bool) error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.brokenErr(); err != nil {
		return err
	}
	kind := byte(kindSet)
	if tomb {
		kind = kindTomb
	}
	frames, pending := d.frames[:0], d.pending[:0]
	for _, rec := range recs {
		start := len(frames)
		frames = appendFrame(frames, kind, rec.Name, rec.Data)
		pending = append(pending, pendingRec{name: rec.Name, data: rec.Data, loc: recLoc{
			seg: d.activeID, off: d.good + int64(start), flen: int32(len(frames) - start), tomb: tomb}})
	}
	_, err := d.active.Write(frames)
	if err == nil {
		err = d.cfg.sync(d.active)
	}
	if err == nil {
		d.syncs.Add(1)
		d.batches.Add(1)
		d.appended.Add(int64(len(pending)))

		d.mu.Lock()
		d.good += int64(len(frames))
		for _, p := range pending {
			d.over[p.name] = p.loc
			switch v, resident := d.res[p.name]; {
			case p.loc.tomb:
				d.tombstones.Add(1)
				d.dropResident(p.name)
			case resident:
				// The cache keeps the value past the call: copy it.
				v.data = bytes.Clone(p.data)
				d.touchResident(v)
			}
		}
		d.mu.Unlock()
		d.maybeSeal()
	} else if terr := d.active.Truncate(d.good); terr != nil {
		// The tail is suspect and cannot be rolled back: the log is wedged
		// and every future store reports it.
		d.breakLog(terr)
	} else if _, serr := d.active.Seek(d.good, io.SeekStart); serr != nil {
		d.breakLog(serr)
	}
	// Keep the scratch for the next commit, but neither an outsized buffer
	// nor references to the caller's values.
	clear(pending)
	d.pending = pending
	if cap(frames) > 1<<20 {
		frames = nil
	}
	d.frames = frames
	d.maybeCompact()
	return err
}

// brokenErr reports the failure that wedged the log, if any.
func (d *LogDisk) brokenErr() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.broken != nil {
		return fmt.Errorf("%w: %w", errLogBroken, d.broken)
	}
	return nil
}

func (d *LogDisk) breakLog(err error) {
	d.mu.Lock()
	d.broken = err
	d.mu.Unlock()
}

// maybeSeal retires the active segment once it passes the size threshold.
// Sealed segments keep their file handles open so cold loads survive a
// concurrent compaction unlinking the path. The successor is created (and
// its name made durable) off the lock; if that fails the log keeps its
// valid active segment and refuses further commits.
func (d *LogDisk) maybeSeal() {
	if d.good < d.cfg.segmentBytes {
		return
	}
	next, err := d.createSegment(d.activeID + 1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.broken = err
		return
	}
	d.sealed = append(d.sealed, &segInfo{id: d.activeID, f: d.active, size: d.good})
	d.sealedSize += d.good
	d.active, d.activeID, d.good = next, d.activeID+1, 0
}

// maybeCompact launches a background compaction when the sealed chain trips
// the size trigger.
func (d *LogDisk) maybeCompact() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.compacting || d.broken != nil || len(d.sealed) == 0 || d.sealedSize < d.cfg.compactBytes {
		return
	}
	segs := make([]*segInfo, len(d.sealed))
	copy(segs, d.sealed)
	d.compacting = true
	d.compWG.Add(1)
	go d.compact(segs)
}

// compact merges the current snapshot and the given sealed segments into a
// new snapshot whose watermark covers them, swaps it in, and deletes the
// consumed segments. It runs concurrently with serving: the inputs are
// immutable, and only the swap (rename + index/overlay fixup + deletion)
// takes the lock. On an error before the rename the compaction is abandoned
// — the segments simply survive until the next attempt. After the rename,
// a failed directory sync leaves it unknown which snapshot a crash brings
// back, and the old one needs every consumed segment: the log is marked
// broken and nothing is deleted.
func (d *LogDisk) compact(segs []*segInfo) {
	defer d.compWG.Done()
	watermark := segs[len(segs)-1].id
	tmpName, raw, offs, err := d.writeSnapshot(segs, watermark)
	if err != nil {
		d.abandonCompaction()
		return
	}
	if hook := d.cfg.compactHook; hook != nil && !hook("written") {
		d.abandonCompaction()
		return
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	final := filepath.Join(d.dir, snapName)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		d.compacting = false
		return
	}
	if err := d.cfg.syncDir(d.dir); err != nil {
		d.broken = fmt.Errorf("stable: sync log dir after snapshot rename: %w", err)
		return
	}
	if hook := d.cfg.compactHook; hook != nil && !hook("renamed") {
		// Simulated crash after the commit point: stop before the in-memory
		// swap. The old snapshot handle still reads the old (now unlinked)
		// file, so the in-memory state stays consistent; compacting stays
		// true so no further compaction races the simulated wreckage.
		return
	}
	newF, err := os.Open(final)
	if err != nil {
		d.compacting = false
		return
	}
	if d.snapF != nil {
		d.snapF.Close()
	}
	d.snapF, d.baseRaw, d.baseOffs, d.watermark = newF, raw, offs, watermark
	// Every overlay entry the new snapshot covers is now base state (or, for
	// tombstones, gone entirely).
	for name, loc := range d.over {
		if loc.seg <= watermark {
			delete(d.over, name)
		}
	}
	for i, seg := range segs {
		seg.f.Close()
		os.Remove(d.segPath(seg.id))
		if hook := d.cfg.compactHook; i == 0 && hook != nil && !hook("deleted") {
			return
		}
	}
	d.sealed = d.sealed[len(segs):]
	d.sealedSize = 0
	for _, seg := range d.sealed {
		d.sealedSize += seg.size
	}
	d.compacting = false
	d.compactions.Add(1)
}

func (d *LogDisk) abandonCompaction() {
	d.mu.Lock()
	d.compacting = false
	d.mu.Unlock()
}

// writeSnapshot writes the merge of the current snapshot and segs to a temp
// file in the log directory: data frames in name order (so a sequential
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
func (d *LogDisk) writeSnapshot(segs []*segInfo, watermark uint64) (tmpName string, raw []byte, offs []int32, err error) {
	type entry struct {
		name string
		loc  recLoc
	}
	d.mu.Lock()
	snapF, baseRaw, baseOffs := d.snapF, d.baseRaw, d.baseOffs
	newer := make([]entry, 0, len(d.over))
	for name, loc := range d.over {
		if loc.seg <= watermark {
			newer = append(newer, entry{name, loc})
		}
	}
	d.mu.Unlock()
	slices.SortFunc(newer, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	logs := make(map[uint64][]byte, len(segs))
	for _, seg := range segs {
		if logs[seg.id], err = readSegment(seg.f, seg.size); err != nil {
			return "", nil, nil, err
		}
	}

	tmp, err := os.CreateTemp(d.dir, "snap-tmp-*")
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
	if err = d.cfg.sync(tmp); err != nil {
		return "", nil, nil, err
	}
	if err = tmp.Close(); err != nil {
		return "", nil, nil, err
	}
	return tmp.Name(), raw, offs, nil
}

// Store implements Storage: a single-record group.
func (d *LogDisk) Store(record string, data []byte) error {
	return d.StoreBatch([]Record{{Name: record, Data: data}})
}

// StoreBatch implements Storage: the records, in batch order (a repeated name
// keeps last-wins), are one append and one sync. On error none of the batch
// is acknowledged — per the Storage contract, individual records may or may
// not have become durable.
func (d *LogDisk) StoreBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	return d.commit(recs, false)
}

// Delete durably removes a record: a tombstone frame is appended (committed
// like any store), the record disappears from Retrieve and Records, and the
// next compaction drops the dead bytes from its snapshot. Deleting an absent
// record is a no-op that still logs a tombstone. Implements Deleter.
func (d *LogDisk) Delete(record string) error {
	return d.commit([]Record{{Name: record}}, true)
}

// Retrieve implements Storage. A resident value is served from memory; a
// cold one is read from its snapshot or segment frame under the lock (which
// pins the file handles against a concurrent compaction swap) and promoted
// into the LRU.
func (d *LogDisk) Retrieve(record string) ([]byte, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, ErrClosed
	}
	if v, ok := d.res[record]; ok {
		d.touchResident(v)
		cp := make([]byte, len(v.data))
		copy(cp, v.data)
		return cp, true, nil
	}
	loc, ok := d.lookup(record)
	if !ok {
		return nil, false, nil
	}
	data, err := d.readFrame(loc, record)
	if err != nil {
		return nil, false, err
	}
	d.promote(record, data)
	return bytes.Clone(data), true, nil
}

// readFrame cold-loads one frame's value, in a buffer the caller owns.
// Caller holds d.mu.
func (d *LogDisk) readFrame(loc recLoc, want string) ([]byte, error) {
	var f *os.File
	switch {
	case loc.seg == 0:
		f = d.snapF
	case loc.seg == d.activeID:
		f = d.active
	default:
		for _, seg := range d.sealed {
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

// Records implements Storage: Scan's names, sorted.
func (d *LogDisk) Records(prefix string) ([]string, error) {
	return sortedScan(d, prefix)
}

// Scan implements Scanner: under the lock it walks the footer-index entries
// (names only — record values are never read or paged in) plus the
// non-tombstone overlay entries, so no caller ever holds the full namespace
// in memory. Order is index order, then overlay order; fn must not call back
// into the store (Retrieve takes the same lock).
func (d *LogDisk) Scan(prefix string, fn func(string) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for _, off := range d.baseOffs {
		nb, _ := indexEntry(d.baseRaw, off)
		if !strings.HasPrefix(string(nb), prefix) {
			continue
		}
		name := string(nb)
		if _, shadowed := d.over[name]; shadowed {
			continue
		}
		if err := fn(name); err != nil {
			return err
		}
	}
	for name, loc := range d.over {
		if !loc.tomb && strings.HasPrefix(name, prefix) {
			if err := fn(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements Storage. It takes the commit mutex — a commit in flight
// finishes — marks the log closed, waits for an in-flight compaction, and,
// when the log holds enough uncompacted bytes, folds the segments into the
// snapshot so the next open is an index read. Close is idempotent; content
// remains retrievable by a new open of the same directory.
func (d *LogDisk) Close() error {
	d.commitMu.Lock()
	defer d.commitMu.Unlock()
	if !d.closed {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		d.compWG.Wait()
		d.closeCompact()
		d.closeFiles()
	}
	return nil
}

// closeCompact is the clean-shutdown compaction: seal the active segment
// and merge everything into the snapshot, provided the log holds at least
// closeCompactBytes of uncompacted data. Runs under commitMu, after any
// background compaction has exited.
func (d *LogDisk) closeCompact() {
	min := d.cfg.closeCompactBytes
	if min == 0 || d.brokenErr() != nil {
		return
	}
	if d.sealedSize+d.good < min {
		return
	}
	if d.good > 0 {
		d.sealed = append(d.sealed, &segInfo{id: d.activeID, f: d.active, size: d.good})
		d.sealedSize += d.good
		d.active = nil
	}
	if len(d.sealed) == 0 {
		return
	}
	d.compacting = true
	d.compWG.Add(1)
	d.compact(d.sealed)
}

func (d *LogDisk) closeFiles() {
	if d.active != nil {
		d.active.Close()
		d.active = nil
	}
	for _, seg := range d.sealed {
		seg.f.Close()
	}
	d.sealed = nil
	if d.snapF != nil {
		d.snapF.Close()
		d.snapF = nil
	}
}

// --- resident-value LRU (caller holds d.mu) ---

// promote caches a value that is not resident, which the caller hands over
// (it must not alias a buffer anyone else writes), evicting the least
// recently used beyond the cap.
func (d *LogDisk) promote(name string, data []byte) {
	v := &resVal{name: name, data: data}
	d.res[name] = v
	d.lruPushFront(v)
	for len(d.res) > d.cfg.residentRecords {
		d.dropResident(d.lruTail.name)
		d.evictions.Add(1)
	}
}

func (d *LogDisk) dropResident(name string) {
	v, ok := d.res[name]
	if !ok {
		return
	}
	delete(d.res, name)
	d.lruUnlink(v)
}

func (d *LogDisk) touchResident(v *resVal) {
	if d.lruHead == v {
		return
	}
	d.lruUnlink(v)
	d.lruPushFront(v)
}

func (d *LogDisk) lruPushFront(v *resVal) {
	v.prev = nil
	v.next = d.lruHead
	if d.lruHead != nil {
		d.lruHead.prev = v
	}
	d.lruHead = v
	if d.lruTail == nil {
		d.lruTail = v
	}
}

func (d *LogDisk) lruUnlink(v *resVal) {
	if v.prev != nil {
		v.prev.next = v.next
	} else {
		d.lruHead = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else {
		d.lruTail = v.prev
	}
	v.prev, v.next = nil, nil
}

// --- counters ---

// Syncs returns the number of commit syncs issued — the engine's fsync bill.
// Compare against AppendedRecords to read off the amortization factor.
func (d *LogDisk) Syncs() int64 { return d.syncs.Load() }

// Batches returns the number of commits made: one per Store, StoreBatch or
// Delete call that succeeded.
func (d *LogDisk) Batches() int64 { return d.batches.Load() }

// AppendedRecords returns the number of frames appended to segment files.
func (d *LogDisk) AppendedRecords() int64 { return d.appended.Load() }

// Compactions returns the number of completed compactions (including the
// clean-shutdown pass).
func (d *LogDisk) Compactions() int64 { return d.compactions.Load() }

// Tombstones returns the number of tombstone frames durably appended by
// Delete.
func (d *LogDisk) Tombstones() int64 { return d.tombstones.Load() }

// Evictions returns the number of resident values dropped by the LRU.
func (d *LogDisk) Evictions() int64 { return d.evictions.Load() }

// ResidentValues returns the number of record values currently held in
// memory — the quantity residentRecords bounds.
func (d *LogDisk) ResidentValues() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.res)
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
