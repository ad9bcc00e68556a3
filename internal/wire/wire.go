// Package wire defines the protocol messages of the register emulations
// (Figures 4 and 5 of the paper) and a compact binary codec for them. The
// same envelopes flow over the in-memory simulated network and over real
// sockets, so the codec is part of the protocol's contract.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"recmem/internal/tag"
)

// Kind identifies the message type.
type Kind uint8

// Protocol message kinds. The names follow Figure 4: SN/SN_ack query the
// highest sequence number, W/W_ack propagate a tagged value, R/R_ack query
// tagged values. WriteBack is the W message of a read's second round — the
// algorithm treats it identically to W; it is distinguished only so that the
// harness can account read-induced logs separately and so that the tests'
// no-read-log mutant (Theorem 2, docs/adr/0027) can target it.
const (
	KindSNQuery Kind = iota + 1
	KindSNAck
	KindWrite
	KindWriteAck
	KindRead
	KindReadAck
	KindWriteBack
)

// String returns the message kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KindSNQuery:
		return "SN"
	case KindSNAck:
		return "SN_ack"
	case KindWrite:
		return "W"
	case KindWriteAck:
		return "W_ack"
	case KindRead:
		return "R"
	case KindReadAck:
		return "R_ack"
	case KindWriteBack:
		return "WB"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsAck reports whether k is an acknowledgement kind.
func (k Kind) IsAck() bool {
	return k == KindSNAck || k == KindWriteAck || k == KindReadAck
}

// MaxValueSize bounds a written value, mirroring the paper's UDP datagram
// limit ("a UDP packet cannot contain more than 64KB of data"; larger values
// would require chunking and change the algorithm's message complexity).
const MaxValueSize = 64 << 10

// Envelope is one protocol message.
type Envelope struct {
	// Kind is the message type.
	Kind Kind
	// From and To are process ids.
	From, To int32
	// Reg names the register the message belongs to; every register runs an
	// independent instance of the protocol over the shared channels.
	Reg string
	// RPC correlates one execution's requests with their acknowledgements.
	RPC uint64
	// Op is the client operation (or recovery) on whose behalf the message
	// is sent; used for causal-log accounting.
	Op uint64
	// Depth is the causal log-chain depth carried by the message (§I-B).
	Depth uint8
	// Tag is the value timestamp: the payload tag for W/WB, the replica's
	// current tag for SN_ack/R_ack. Zero otherwise.
	Tag tag.Tag
	// Value is the written value for W/WB and the replica's current value
	// for R_ack. Nil otherwise.
	Value []byte
}

// codec framing constants.
const (
	codecVersion = 1
	headerSize   = 1 + 1 + 4 + 4 + 8 + 8 + 1 + (8 + 4 + 4) + 2 + 4 // version..value length
)

// Codec errors.
var (
	ErrValueTooLarge = errors.New("wire: value exceeds MaxValueSize")
	ErrShortBuffer   = errors.New("wire: short buffer")
	ErrBadVersion    = errors.New("wire: unknown codec version")
	ErrBadMessage    = errors.New("wire: malformed message")
)

// Encode serializes the envelope. The layout is fixed-width header fields in
// big-endian order, followed by the register name and the value.
func Encode(e Envelope) ([]byte, error) {
	return AppendEncode(make([]byte, 0, headerSize+len(e.Reg)+len(e.Value)), e)
}

// AppendEncode appends the encoded envelope to buf and returns the extended
// slice — the allocation-free form of Encode for callers that recycle their
// frame buffers (sync.Pool'd transports). On error buf may have grown; the
// caller re-slices from its own mark.
func AppendEncode(buf []byte, e Envelope) ([]byte, error) {
	if len(e.Value) > MaxValueSize {
		return nil, ErrValueTooLarge
	}
	if len(e.Reg) > 0xFFFF {
		return nil, fmt.Errorf("wire: register name too long (%d bytes)", len(e.Reg))
	}
	buf = append(buf, codecVersion, byte(e.Kind))
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.From))
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.To))
	buf = binary.BigEndian.AppendUint64(buf, e.RPC)
	buf = binary.BigEndian.AppendUint64(buf, e.Op)
	buf = append(buf, e.Depth)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Tag.Seq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Tag.Writer))
	buf = binary.BigEndian.AppendUint32(buf, uint32(e.Tag.Rec))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Reg)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Value)))
	buf = append(buf, e.Reg...)
	buf = append(buf, e.Value...)
	return buf, nil
}

// Decode parses an envelope previously produced by Encode.
func Decode(buf []byte) (Envelope, error) {
	var e Envelope
	if len(buf) < headerSize {
		return e, ErrShortBuffer
	}
	if buf[0] != codecVersion {
		return e, ErrBadVersion
	}
	e.Kind = Kind(buf[1])
	if e.Kind < KindSNQuery || e.Kind > KindWriteBack {
		return e, ErrBadMessage
	}
	e.From = int32(binary.BigEndian.Uint32(buf[2:]))
	e.To = int32(binary.BigEndian.Uint32(buf[6:]))
	e.RPC = binary.BigEndian.Uint64(buf[10:])
	e.Op = binary.BigEndian.Uint64(buf[18:])
	e.Depth = buf[26]
	e.Tag.Seq = int64(binary.BigEndian.Uint64(buf[27:]))
	e.Tag.Writer = int32(binary.BigEndian.Uint32(buf[35:]))
	e.Tag.Rec = int32(binary.BigEndian.Uint32(buf[39:]))
	regLen := int(binary.BigEndian.Uint16(buf[43:]))
	valLen := int(binary.BigEndian.Uint32(buf[45:]))
	if valLen > MaxValueSize {
		return e, ErrValueTooLarge
	}
	rest := buf[headerSize:]
	if len(rest) != regLen+valLen {
		return e, ErrBadMessage
	}
	e.Reg = string(rest[:regLen])
	if valLen > 0 {
		e.Value = make([]byte, valLen)
		copy(e.Value, rest[regLen:])
	}
	return e, nil
}

// Size returns the encoded size of the envelope without encoding it, used by
// latency models that charge for bytes on the wire.
func Size(e Envelope) int {
	return headerSize + len(e.Reg) + len(e.Value)
}

// Batch frames: one wire frame carrying several envelopes, all addressed to
// the same destination. Batch-aware transports use them so that one network
// round-trip (one datagram, one TCP frame) carries the coalesced protocol
// rounds of many concurrent operations — the message-level half of the
// batching architecture (docs/adr/0001). The first byte distinguishes a
// batch frame from a v1 envelope, so a receiver can accept both on the same
// connection.
const (
	batchVersion = 0xB1
	batchHeader  = 1 + 2 // version, count
	// MaxBatchLen bounds the number of envelopes in one batch frame.
	MaxBatchLen = 0xFFFF
)

// Batch framing errors.
var (
	ErrBatchTooLarge = errors.New("wire: batch exceeds MaxBatchLen envelopes")
	ErrNotBatch      = errors.New("wire: not a batch frame")
	ErrMixedBatch    = errors.New("wire: batch envelopes address different destinations")
)

// IsBatch reports whether buf starts a batch frame (as opposed to a single
// v1 envelope).
func IsBatch(buf []byte) bool {
	return len(buf) > 0 && buf[0] == batchVersion
}

// EncodeBatch serializes several envelopes as one frame. All envelopes must
// share the same destination: a batch frame models one physical message on
// one link.
func EncodeBatch(envs []Envelope) ([]byte, error) {
	return AppendEncodeBatch(make([]byte, 0, BatchSize(envs)), envs)
}

// AppendEncodeBatch appends the encoded batch frame to buf and returns the
// extended slice — the allocation-free form of EncodeBatch. Each envelope is
// encoded in place behind a reserved 4-byte length slot, so the batch is
// built in one pass with no per-envelope intermediate buffer.
func AppendEncodeBatch(buf []byte, envs []Envelope) ([]byte, error) {
	if len(envs) == 0 || len(envs) > MaxBatchLen {
		return nil, ErrBatchTooLarge
	}
	for _, e := range envs {
		if e.To != envs[0].To {
			return nil, ErrMixedBatch
		}
	}
	buf = append(buf, batchVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(envs)))
	for _, e := range envs {
		mark := len(buf)
		buf = append(buf, 0, 0, 0, 0) // length slot, patched below
		body, err := AppendEncode(buf, e)
		if err != nil {
			return nil, err
		}
		buf = body
		binary.BigEndian.PutUint32(buf[mark:], uint32(len(buf)-mark-4))
	}
	return buf, nil
}

// DecodeBatch parses a frame produced by EncodeBatch.
func DecodeBatch(buf []byte) ([]Envelope, error) {
	if !IsBatch(buf) {
		return nil, ErrNotBatch
	}
	if len(buf) < batchHeader {
		return nil, ErrShortBuffer
	}
	count := int(binary.BigEndian.Uint16(buf[1:]))
	rest := buf[batchHeader:]
	envs := make([]Envelope, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return nil, ErrShortBuffer
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if len(rest) < n {
			return nil, ErrShortBuffer
		}
		e, err := Decode(rest[:n])
		if err != nil {
			return nil, err
		}
		envs = append(envs, e)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, ErrBadMessage
	}
	return envs, nil
}

// BatchSize returns the encoded size of a batch frame carrying envs, without
// encoding it.
func BatchSize(envs []Envelope) int {
	total := batchHeader
	for _, e := range envs {
		total += 4 + Size(e)
	}
	return total
}

// String renders the envelope for traces.
func (e Envelope) String() string {
	return fmt.Sprintf("%s{%d->%d reg=%s rpc=%d op=%d d=%d tag=%s |v|=%d}",
		e.Kind, e.From, e.To, e.Reg, e.RPC, e.Op, e.Depth, e.Tag, len(e.Value))
}
