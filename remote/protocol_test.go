package remote

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"recmem/internal/frame"
	"recmem/internal/tag"
	"recmem/internal/wire"
)

// TestRequestRoundTrip round-trips every request kind through the codec.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{Kind: reqPing, ID: 1},
		{Kind: reqWrite, ID: 2, Reg: "x", Value: []byte("hello"), DeadlineUS: 1500},
		{Kind: reqWrite, ID: 3, Reg: "", Value: nil},
		{Kind: reqRead, ID: 4, Reg: "sensor", Consistency: 2, DeadlineUS: 42},
		{Kind: reqCrash, ID: 5},
		{Kind: reqRecover, ID: 6, DeadlineUS: 7},
		{Kind: reqInfo, ID: 7},
	}
	for _, want := range reqs {
		body, err := encodeRequest(want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		got, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: round trip = %+v, want %+v", want.Kind, got, want)
		}
	}
}

// TestResponseRoundTrip round-trips every response kind, both success and
// error shapes.
func TestResponseRoundTrip(t *testing.T) {
	resps := []response{
		{Kind: reqPing, ID: 1},
		{Kind: reqWrite, ID: 2, Op: 77, LatencyUS: 1234},
		{Kind: reqWrite, ID: 12, Op: 79, LatencyUS: 5, Tag: tag.Tag{Seq: 42, Writer: 2, Rec: 1}},
		{Kind: reqRead, ID: 3, Op: 78, Present: true, Value: []byte("v")},
		{Kind: reqRead, ID: 13, Op: 80, Present: true, Value: []byte("w"), Tag: tag.Tag{Seq: 7, Writer: 1}},
		{Kind: reqRead, ID: 4}, // absent value (⊥), no witness
		{Kind: reqCrash, ID: 5},
		{Kind: reqRecover, ID: 6, LatencyUS: 99},
		{Kind: reqInfo, ID: 7, NodeID: 2, N: 5, Quorum: 3, Algorithm: 3},
		{Kind: reqWrite, ID: 8, Code: codeCrashed, Msg: "process crashed"},
		{Kind: reqRead, ID: 9, Code: codeDown, Msg: "down"},
		{Kind: reqRecover, ID: 10, Code: codeNotDown, Msg: "not down"},
		{Kind: reqPing, ID: 11, Code: codeGeneric, Msg: ""},
	}
	for _, want := range resps {
		body, err := encodeResponse(want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		got, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: round trip = %+v, want %+v", want.Kind, got, want)
		}
	}
}

// TestCodecRejections exercises the malformed-input paths: short buffers,
// bad versions, truncated payloads, oversized values.
func TestCodecRejections(t *testing.T) {
	good, err := encodeRequest(request{Kind: reqWrite, ID: 1, Reg: "x", Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRequest(good[:reqHeader-1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short request: %v", err)
	}
	if _, err := decodeRequest(good[:len(good)-1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated request: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := decodeRequest(bad); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := encodeRequest(request{Kind: reqWrite, Reg: "x",
		Value: make([]byte, wire.MaxValueSize+1)}); !errors.Is(err, wire.ErrValueTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if _, err := encodeRequest(request{Kind: reqWrite, Reg: strings.Repeat("r", 1<<17)}); err == nil {
		t.Fatal("oversized register name accepted")
	}

	goodResp, err := encodeResponse(response{Kind: reqRead, ID: 1, Present: true, Value: []byte("v")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResponse(goodResp[:len(goodResp)-1]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated response: %v", err)
	}
	// A request byte where a response is expected (missing respFlag).
	notResp := append([]byte(nil), goodResp...)
	notResp[1] &^= respFlag
	if _, err := decodeResponse(notResp); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("non-response kind byte: %v", err)
	}
}

// writeFrame and readFrame are the tests' one-frame-at-a-time forms of the
// framing the package gets from internal/frame, under the control port's
// limit.
func writeFrame(w io.Writer, body []byte) error {
	fw := frame.NewWriter(w, nil)
	if err := fw.Append(MaxFrame, func(b []byte) ([]byte, error) { return append(b, body...), nil }); err != nil {
		return err
	}
	return fw.Flush()
}

func readFrame(r io.Reader) ([]byte, error) {
	return frame.Read(r, new(frame.Buf), MaxFrame)
}

// TestFrameIO checks the control port's framing limits: MaxFrame on both
// sides, and short reads.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	body, err := readFrame(&buf)
	if err != nil || string(body) != "abc" {
		t.Fatalf("frame round trip = %q, %v", body, err)
	}
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v", err)
	}
	// A length prefix larger than the cap is rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized prefix: %v", err)
	}
	// A truncated frame is an error, never a silent short read.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 10, 'x', 'y'})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestWireBytesUnchanged pins the control port's bytes on the wire against
// constants captured before framing moved to internal/frame: a client and a
// node built from either side of that change interoperate.
func TestWireBytesUnchanged(t *testing.T) {
	const (
		reqHex  = "0000002b03020102030405060708000005dc01000a0000000c676f6c64656e2f726567676f6c64656e2076616c7565"
		respHex = "0000003c0383111213141516171800000000000000004d010000000000000009000000020000000300000000000000050000000c676f6c64656e2076616c7565"
	)
	var buf bytes.Buffer
	w := frame.NewWriter(&buf, nil)
	req := request{Kind: reqWrite, ID: 0x0102030405060708, DeadlineUS: 1500, Consistency: 1,
		Reg: "golden/reg", Value: []byte("golden value")}
	resp := response{Kind: reqRead, ID: 0x1112131415161718, Op: 77, Present: true,
		Value: []byte("golden value"), Tag: tag.Tag{Seq: 9, Writer: 2, Rec: 3}, Epoch: 5}
	if err := w.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendRequest(b, req) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(MaxFrame, func(b []byte) ([]byte, error) { return appendResponse(b, resp) }); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != reqHex+respHex {
		t.Fatalf("wire bytes changed:\n got %s\nwant %s%s", got, reqHex, respHex)
	}
}

// TestRequestIDRoundTrip pins the request-id contract: the id is a field of
// the codec — encoded by encodeRequest, recovered by decodeRequest — never
// patched into the frame at a hard-coded offset after encoding (the old
// client did exactly that, which would silently corrupt every frame the
// moment the header layout changed). Exercised across the id range and
// request shapes that shift the surrounding bytes.
func TestRequestIDRoundTrip(t *testing.T) {
	ids := []uint64{0, 1, 255, 1 << 16, 1<<32 - 1, 1 << 32, 1<<64 - 1}
	shapes := []request{
		{Kind: reqPing},
		{Kind: reqWrite, Reg: "x", Value: []byte("v"), DeadlineUS: 9},
		{Kind: reqRead, Reg: "a-much-longer-register-name", Consistency: 1},
	}
	for _, id := range ids {
		for _, shape := range shapes {
			req := shape
			req.ID = id
			body, err := encodeRequest(req)
			if err != nil {
				t.Fatalf("id %d %v: encode: %v", id, req.Kind, err)
			}
			got, err := decodeRequest(body)
			if err != nil {
				t.Fatalf("id %d %v: decode: %v", id, req.Kind, err)
			}
			if got.ID != id {
				t.Fatalf("id %d %v: round trip = %d", id, req.Kind, got.ID)
			}
			// Responses echo the id through their own codec path.
			rbody, err := encodeResponse(response{Kind: req.Kind, ID: id})
			if err != nil {
				t.Fatalf("id %d %v: encode response: %v", id, req.Kind, err)
			}
			resp, err := decodeResponse(rbody)
			if err != nil {
				t.Fatalf("id %d %v: decode response: %v", id, req.Kind, err)
			}
			if resp.ID != id {
				t.Fatalf("id %d %v: response round trip = %d", id, req.Kind, resp.ID)
			}
		}
	}
}
