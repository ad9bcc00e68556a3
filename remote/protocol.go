// Package remote connects a recmem.Client to a live recmem-node over TCP:
// the deployment shape of the paper's measurements (one process per
// workstation), driven through the same API as the in-process simulation.
//
// The control protocol is a length-prefixed binary RPC built in the style
// of internal/wire's envelope codec (fixed-width big-endian header fields,
// then variable sections) and sharing its value-size contract
// (wire.MaxValueSize). Every request carries a client-chosen request id and
// the server replies out of order as operations complete, so one connection
// sustains arbitrarily many in-flight operations — remote clients get the
// same pipelining and coalescing the simulated cluster's batching engine
// provides, because the server dispatches every operation through it.
//
// Frame and body layout (all integers big-endian; the framing itself lives
// in internal/frame):
//
//	frame    := u32 bodyLen | body            (bodyLen ≤ MaxFrame)
//	request  := u8 version | u8 kind | u64 id | u32 deadline_us |
//	            u8 consistency | u16 regLen | reg | u32 valLen | val
//	response := u8 version | u8 kind|0x80 | u64 id | u8 code | rest
//	rest     := u16 msgLen | msg                        (code != 0)
//	          | per-kind payload                        (code == 0):
//	              ping/crash: (empty)
//	              write:      u64 op | u64 latency_us | tag | u64 epoch
//	              read:       u64 op | u8 present | tag | u64 epoch |
//	                          u32 valLen | val
//	              recover:    u64 latency_us
//	              info:       u32 nodeID | u32 n | u32 quorum |
//	                          u8 algorithm | u64 epoch
//	tag      := u64 seq | u32 writer | u32 rec          (16 bytes)
//
// The tag section (since version 2) is the operation's tag witness: the
// [sn, pid] timestamp the node adopted for the written or returned value,
// or all-zero when there is none (a read of the initial value ⊥, a
// coalesced write superseded within its batch). It gives merged client-side
// histories a server-side ordering witness (docs/adr/0004) instead of
// trusting client clocks.
//
// The epoch section (since version 3) is the node's incarnation epoch
// (docs/adr/0006): a monotonic per-boot counter, persisted in stable storage
// and minted at every recovery, that strictly increases across each of the
// node's deaths — including real process restarts over the same directory.
// Write and read replies carry the epoch the operation completed under
// (zero never appears on success); the info reply carries the node's current
// epoch so the handshake pins the incarnation a connection starts against.
// Recording clients compare reply epochs to infer crash/recover events
// nobody injected, which is what lets kill-restart meshes verify under
// transient atomicity.
//
// Versioning rules (docs/adr/0003): the version byte is bumped only for
// incompatible layout changes — version 2 widened the write and read reply
// payloads by the tag section, version 3 widened write, read and info
// replies by the epoch section; earlier decoders would reject either.
// A server receiving an unknown version or kind answers with an error
// response (code badRequest) instead of dropping the connection, so old
// clients fail op-by-op, not connection-wide. New request kinds and new
// error codes are backward-compatible extensions.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"

	"recmem/internal/frame"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// Version is the protocol version this package speaks. Version 2 added the
// tag-witness section to write and read replies; version 3 added the
// incarnation-epoch section to write, read and info replies.
const Version = 3

// MaxFrame bounds one frame body: generous for a maximal value
// (wire.MaxValueSize) plus headers, small enough to reject garbage length
// prefixes before allocating.
const MaxFrame = 1 << 20

// reqKind identifies a request type.
type reqKind uint8

// Request kinds.
const (
	reqPing reqKind = iota + 1
	reqWrite
	reqRead
	reqCrash
	reqRecover
	reqInfo
	reqKindMax = reqInfo
)

// respFlag marks a response's kind byte.
const respFlag = 0x80

// String returns the request kind mnemonic.
func (k reqKind) String() string {
	switch k {
	case reqPing:
		return "PING"
	case reqWrite:
		return "WRITE"
	case reqRead:
		return "READ"
	case reqCrash:
		return "CRASH"
	case reqRecover:
		return "RECOVER"
	case reqInfo:
		return "INFO"
	default:
		return fmt.Sprintf("reqKind(%d)", uint8(k))
	}
}

// errCode classifies an error response; codes map back to the recmem
// sentinel errors on the client.
type errCode uint8

// Error codes (0 is success).
const (
	codeGeneric errCode = iota + 1
	codeCrashed
	codeDown
	codeNotDown
	codeCannotRecover
	codeNotWriter
	codeValueTooLarge
	codeBadConsistency
	codeDeadline
	codeBadRequest
)

// Protocol errors.
var (
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrame.
	ErrFrameTooLarge = frame.ErrTooLarge
	// ErrBadVersion is returned for an unknown protocol version byte.
	ErrBadVersion = errors.New("remote: unknown protocol version")
	// ErrBadFrame is returned for a structurally malformed frame body.
	ErrBadFrame = errors.New("remote: malformed frame")
)

// request is one decoded request.
type request struct {
	Kind reqKind
	// ID correlates the response; chosen by the client, echoed verbatim.
	ID uint64
	// DeadlineUS bounds the server-side wait in microseconds (0 = none).
	DeadlineUS uint32
	// Consistency is the read mode byte (core.ReadMode numbering).
	Consistency uint8
	// Reg names the register for reads and writes.
	Reg string
	// Value is the written value.
	Value []byte
}

// response is one decoded response.
type response struct {
	Kind reqKind
	ID   uint64
	Code errCode
	Msg  string
	// Op is the server-side operation id (write and read).
	Op uint64
	// LatencyUS is the server-observed operation latency (write, recover).
	LatencyUS uint64
	// Present distinguishes a written empty value from the initial ⊥ (read).
	Present bool
	// Value is the read result.
	Value []byte
	// Tag is the operation's tag witness (write and read; zero = none).
	Tag tag.Tag
	// Epoch is the node's incarnation epoch (write, read, info; never zero
	// on a successful operation — see docs/adr/0006).
	Epoch uint64
	// Info payload.
	NodeID, N, Quorum int32
	Algorithm         uint8
}

// tagSize is the wire width of a tag section: u64 seq, u32 writer, u32 rec.
const tagSize = 8 + 4 + 4

// appendTag serializes a tag section.
func appendTag(buf []byte, t tag.Tag) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(t.Seq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Writer))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t.Rec))
	return buf
}

// decodeTag parses a tag section (the caller has checked the length).
func decodeTag(b []byte) tag.Tag {
	return tag.Tag{
		Seq:    int64(binary.BigEndian.Uint64(b)),
		Writer: int32(binary.BigEndian.Uint32(b[8:])),
		Rec:    int32(binary.BigEndian.Uint32(b[12:])),
	}
}

const reqHeader = 1 + 1 + 8 + 4 + 1 + 2 + 4 // version..valLen

// encodeRequest serializes a request body.
func encodeRequest(r request) ([]byte, error) {
	return appendRequest(make([]byte, 0, reqHeader+len(r.Reg)+len(r.Value)), r)
}

// appendRequest appends the request body to buf and returns the extended
// slice: what the client hands to its connection's frame.Writer.
func appendRequest(buf []byte, r request) ([]byte, error) {
	if len(r.Value) > wire.MaxValueSize {
		return nil, wire.ErrValueTooLarge
	}
	if len(r.Reg) > 0xFFFF {
		return nil, fmt.Errorf("remote: register name too long (%d bytes)", len(r.Reg))
	}
	buf = append(buf, Version, byte(r.Kind))
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = binary.BigEndian.AppendUint32(buf, r.DeadlineUS)
	buf = append(buf, r.Consistency)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Reg)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Value)))
	buf = append(buf, r.Reg...)
	buf = append(buf, r.Value...)
	return buf, nil
}

// decodeRequest parses a request body. The returned request owns its
// fields: the register name and value are copied out of buf.
func decodeRequest(buf []byte) (request, error) {
	return decodeRequestReuse(buf, nil)
}

// decodeRequestReuse is decodeRequest for a buffer that will be reused: the
// register name is resolved through names — a per-connection intern table
// mapping each name to its one owned string — so the steady-state decode
// of a busy connection allocates only the value copy. A nil names table
// degrades to decodeRequest.
func decodeRequestReuse(buf []byte, names map[string]string) (request, error) {
	var r request
	if len(buf) < reqHeader {
		return r, ErrBadFrame
	}
	if buf[0] != Version {
		return r, ErrBadVersion
	}
	r.Kind = reqKind(buf[1])
	r.ID = binary.BigEndian.Uint64(buf[2:])
	r.DeadlineUS = binary.BigEndian.Uint32(buf[10:])
	r.Consistency = buf[14]
	regLen := int(binary.BigEndian.Uint16(buf[15:]))
	valLen := int(binary.BigEndian.Uint32(buf[17:]))
	if valLen > wire.MaxValueSize {
		return r, wire.ErrValueTooLarge
	}
	rest := buf[reqHeader:]
	if len(rest) != regLen+valLen {
		return r, ErrBadFrame
	}
	if names == nil {
		r.Reg = string(rest[:regLen])
	} else if s, ok := names[string(rest[:regLen])]; ok { // no-alloc map probe
		r.Reg = s
	} else {
		s := string(rest[:regLen])
		names[s] = s
		r.Reg = s
	}
	if valLen > 0 {
		r.Value = make([]byte, valLen)
		copy(r.Value, rest[regLen:])
	}
	return r, nil
}

const respHeader = 1 + 1 + 8 + 1 // version, kind, id, code

// encodeResponse serializes a response body.
func encodeResponse(r response) ([]byte, error) {
	return appendResponse(make([]byte, 0, respHeader+16+len(r.Msg)+len(r.Value)), r)
}

// appendResponse appends the response body to buf and returns the extended
// slice: what the server hands to a connection's frame.Writer.
func appendResponse(buf []byte, r response) ([]byte, error) {
	buf = append(buf, Version, byte(r.Kind)|respFlag)
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = append(buf, byte(r.Code))
	if r.Code != 0 {
		if len(r.Msg) > 0xFFFF {
			r.Msg = r.Msg[:0xFFFF]
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Msg)))
		buf = append(buf, r.Msg...)
		return buf, nil
	}
	switch r.Kind {
	case reqPing, reqCrash:
	case reqWrite:
		buf = binary.BigEndian.AppendUint64(buf, r.Op)
		buf = binary.BigEndian.AppendUint64(buf, r.LatencyUS)
		buf = appendTag(buf, r.Tag)
		buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
	case reqRead:
		if len(r.Value) > wire.MaxValueSize {
			return nil, wire.ErrValueTooLarge
		}
		buf = binary.BigEndian.AppendUint64(buf, r.Op)
		present := byte(0)
		if r.Present {
			present = 1
		}
		buf = append(buf, present)
		buf = appendTag(buf, r.Tag)
		buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Value)))
		buf = append(buf, r.Value...)
	case reqRecover:
		buf = binary.BigEndian.AppendUint64(buf, r.LatencyUS)
	case reqInfo:
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.NodeID))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.N))
		buf = binary.BigEndian.AppendUint32(buf, uint32(r.Quorum))
		buf = append(buf, r.Algorithm)
		buf = binary.BigEndian.AppendUint64(buf, r.Epoch)
	default:
		return nil, ErrBadFrame
	}
	return buf, nil
}

// decodeResponse parses a response body.
func decodeResponse(buf []byte) (response, error) {
	var r response
	if len(buf) < respHeader {
		return r, ErrBadFrame
	}
	if buf[0] != Version {
		return r, ErrBadVersion
	}
	if buf[1]&respFlag == 0 {
		return r, ErrBadFrame
	}
	r.Kind = reqKind(buf[1] &^ byte(respFlag))
	r.ID = binary.BigEndian.Uint64(buf[2:])
	r.Code = errCode(buf[10])
	rest := buf[respHeader:]
	if r.Code != 0 {
		if len(rest) < 2 {
			return r, ErrBadFrame
		}
		n := int(binary.BigEndian.Uint16(rest))
		if len(rest) != 2+n {
			return r, ErrBadFrame
		}
		r.Msg = string(rest[2:])
		return r, nil
	}
	switch r.Kind {
	case reqPing, reqCrash:
		if len(rest) != 0 {
			return r, ErrBadFrame
		}
	case reqWrite:
		if len(rest) != 24+tagSize {
			return r, ErrBadFrame
		}
		r.Op = binary.BigEndian.Uint64(rest)
		r.LatencyUS = binary.BigEndian.Uint64(rest[8:])
		r.Tag = decodeTag(rest[16:])
		r.Epoch = binary.BigEndian.Uint64(rest[16+tagSize:])
	case reqRead:
		if len(rest) < 21+tagSize {
			return r, ErrBadFrame
		}
		r.Op = binary.BigEndian.Uint64(rest)
		r.Present = rest[8] == 1
		r.Tag = decodeTag(rest[9:])
		r.Epoch = binary.BigEndian.Uint64(rest[9+tagSize:])
		n := int(binary.BigEndian.Uint32(rest[17+tagSize:]))
		if n > wire.MaxValueSize || len(rest) != 21+tagSize+n {
			return r, ErrBadFrame
		}
		if n > 0 {
			r.Value = make([]byte, n)
			copy(r.Value, rest[21+tagSize:])
		}
	case reqRecover:
		if len(rest) != 8 {
			return r, ErrBadFrame
		}
		r.LatencyUS = binary.BigEndian.Uint64(rest)
	case reqInfo:
		if len(rest) != 21 {
			return r, ErrBadFrame
		}
		r.NodeID = int32(binary.BigEndian.Uint32(rest))
		r.N = int32(binary.BigEndian.Uint32(rest[4:]))
		r.Quorum = int32(binary.BigEndian.Uint32(rest[8:]))
		r.Algorithm = rest[12]
		r.Epoch = binary.BigEndian.Uint64(rest[13:])
	default:
		return r, ErrBadFrame
	}
	return r, nil
}
