package core

import (
	"encoding/binary"
	"errors"

	"recmem/internal/stable"
	"recmem/internal/tag"
)

// Stable-storage record names. One record per role per register, plus the
// process-wide recovery counter of the transient algorithm. The naive
// algorithm adds records for its extra per-step logs.
const (
	// recWrittenPrefix holds a replica's adopted (tag, value) — Fig. 4
	// line 24's store(written, sn, pid, v).
	recWrittenPrefix = "written/"
	// recWritingPrefix holds the tag and value a writer is about to
	// broadcast — Fig. 4 line 12's store(writing, sn, v).
	recWritingPrefix = "writing/"
	// recRecovered holds the recovery counter — Fig. 5's store(recovered).
	recRecovered = "recovered"
	// recWStartPrefix and recSNLogPrefix are the naive algorithm's extra
	// logs (§I-C: "log each of its steps").
	recWStartPrefix = "wstart/"
	recSNLogPrefix  = "snlog/"
	// recIncarnation holds the node's incarnation epoch (docs/adr/0006):
	// harness bookkeeping the algorithms never read, so it is no causal log
	// (its preLog's op is 0).
	recIncarnation = "incarnation"
)

// errBadRecord reports a corrupted stable record.
var errBadRecord = errors.New("core: corrupted stable record")

// WrittenRecordName returns the stable record name under which a replica
// logs its adopted state for one register. Exported for harness tooling
// only: the namespace bench pre-populates stores that a real Node then
// recovers over, so it must write the records where recovery will look.
func WrittenRecordName(reg string) string { return recWrittenPrefix + reg }

// EncodeWrittenPayload returns the stable payload encoding of an adopted
// (tag, value) pair — the content of a WrittenRecordName record. Exported
// for the same harness tooling as WrittenRecordName.
func EncodeWrittenPayload(t tag.Tag, val []byte) []byte { return encodeTagged(t, val) }

// encodeTagged serializes a (tag, value) pair for stable storage.
func encodeTagged(t tag.Tag, val []byte) []byte {
	buf := make([]byte, 0, 20+len(val))
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Seq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Writer))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Rec))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, val...)
	return buf
}

// decodeTagged parses a record produced by encodeTagged.
func decodeTagged(data []byte) (tag.Tag, []byte, error) {
	if len(data) < 20 {
		return tag.Tag{}, nil, errBadRecord
	}
	t := tag.Tag{
		Seq:    int64(binary.BigEndian.Uint64(data)),
		Writer: int32(binary.BigEndian.Uint32(data[8:])),
		Rec:    int32(binary.BigEndian.Uint32(data[12:])),
	}
	n := int(binary.BigEndian.Uint32(data[16:]))
	if len(data) != 20+n {
		return tag.Tag{}, nil, errBadRecord
	}
	var val []byte
	if n > 0 {
		val = make([]byte, n)
		copy(val, data[20:])
	}
	return t, val, nil
}

// encodeCounter serializes the recovery counter.
func encodeCounter(c int32) []byte {
	buf := make([]byte, 4)
	binary.BigEndian.PutUint32(buf, uint32(c))
	return buf
}

// decodeCounter parses a record produced by encodeCounter.
func decodeCounter(data []byte) (int32, error) {
	if len(data) != 4 {
		return 0, errBadRecord
	}
	return int32(binary.BigEndian.Uint32(data)), nil
}

// encodeEpoch serializes the incarnation epoch.
func encodeEpoch(e uint64) []byte {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, e)
	return buf
}

// decodeEpoch parses a record produced by encodeEpoch.
func decodeEpoch(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, errBadRecord
	}
	return binary.BigEndian.Uint64(data), nil
}

// loadIncarnation retrieves the persisted incarnation epoch (0 when none was
// ever stored — a cold start on an empty directory).
func loadIncarnation(st stable.Storage) (uint64, error) {
	data, ok, err := st.Retrieve(recIncarnation)
	if err != nil || !ok {
		return 0, err
	}
	return decodeEpoch(data)
}

// restoreCounter loads the only volatile state recovery materializes
// eagerly: the persisted recovery counter (proto.recMint). The register map
// materializes lazily (regView, docs/adr/0009); a register never stored stays
// at its zero state, the paper's initial store(written, 0, i, ⊥).
func (nd *Node) restoreCounter() (int32, error) {
	if !nd.proto.recMint {
		return 0, nil
	}
	data, ok, err := nd.st.Retrieve(recRecovered)
	if err != nil || !ok {
		return 0, err
	}
	return decodeCounter(data)
}
