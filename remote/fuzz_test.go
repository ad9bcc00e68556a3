package remote

// Fuzzers for the ingest loop and both body decoders: arbitrary bytes must
// never panic them, the reusing variants must agree byte-for-byte with their
// allocating originals, and anything that decodes must survive a
// re-encode/decode round trip unchanged — the property that keeps the
// append-style encoders and the copy-out decoders honest with each other.
// The frame reader alone is fuzzed in internal/frame (FuzzRead).

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"recmem/internal/frame"
	"recmem/internal/tag"
)

// frameOf wraps r's encoded body as one length-prefixed frame.
func frameOf(tb testing.TB, r request) []byte {
	tb.Helper()
	body, err := encodeRequest(r)
	if err != nil {
		tb.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

func FuzzReadFrame(f *testing.F) {
	f.Add(frameOf(f, request{Kind: reqPing, ID: 7}))
	f.Add(frameOf(f, request{Kind: reqWrite, ID: 1, Reg: "r", Value: []byte("v")}))
	f.Add([]byte{0, 0, 0, 0})                   // empty frame
	f.Add([]byte{0, 0, 0, 5, 1, 2})             // truncated body
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2}) // oversized length prefix
	f.Add([]byte{0, 0})                         // truncated prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		// The server's ingest loop over an arbitrary stream: frames are read
		// into one reused buffer and decoded until the stream ends. Every
		// body must be exactly the bytes behind its prefix.
		r := bytes.NewReader(data)
		rb := new(frame.Buf)
		names := map[string]string{}
		for off := 0; ; {
			body, err := frame.Read(r, rb, MaxFrame)
			if err != nil {
				return
			}
			if !bytes.Equal(body, data[off+4:off+4+len(body)]) {
				t.Fatalf("frame at offset %d: body %x", off, body)
			}
			off += 4 + len(body)
			_, _ = decodeRequestReuse(body, names)
			_, _ = decodeResponse(body)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []request{
		{Kind: reqPing, ID: 1},
		{Kind: reqWrite, ID: 2, Reg: "bench", Value: []byte("payload"), DeadlineUS: 500},
		{Kind: reqRead, ID: 3, Reg: "bench", Consistency: 1},
		{Kind: reqInfo},
	} {
		body, err := encodeRequest(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeRequest(data)
		ri, ierr := decodeRequestReuse(data, map[string]string{})
		if (err == nil) != (ierr == nil) {
			t.Fatalf("decodeRequest err=%v, decodeRequestReuse err=%v", err, ierr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(r, ri) {
			t.Fatalf("decodeRequest %+v, decodeRequestReuse %+v", r, ri)
		}
		enc, err := encodeRequest(r)
		if err != nil {
			t.Fatalf("decoded request fails to re-encode: %v", err)
		}
		r2, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("re-encoded request fails to decode: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the request: %+v != %+v", r, r2)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []response{
		{Kind: reqPing, ID: 1},
		{Kind: reqWrite, ID: 2, Op: 9, LatencyUS: 17,
			Tag: tag.Tag{Seq: 3, Writer: 1, Rec: 2}, Epoch: 4},
		{Kind: reqRead, ID: 3, Op: 10, Present: true, Value: []byte("payload"),
			Tag: tag.Tag{Seq: 5, Writer: 0, Rec: 1}, Epoch: 4},
		{Kind: reqRecover, ID: 4, LatencyUS: 123456},
		{Kind: reqInfo, ID: 5, NodeID: 1, N: 3, Quorum: 2, Algorithm: 1, Epoch: 7},
		{Kind: reqWrite, ID: 6, Code: codeDown, Msg: "node is down"},
	} {
		body, err := encodeResponse(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResponse(data)
		if err != nil {
			return
		}
		enc, err := encodeResponse(r)
		if err != nil {
			t.Fatalf("decoded response fails to re-encode: %v", err)
		}
		r2, err := decodeResponse(enc)
		if err != nil {
			t.Fatalf("re-encoded response fails to decode: %v", err)
		}
		// A non-canonical Present byte (anything but 1) decodes as false and
		// re-encodes as 0; everything else must survive untouched.
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the response: %+v != %+v", r, r2)
		}
	})
}
