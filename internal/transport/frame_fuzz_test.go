package transport

// Fuzz and adversarial-input tests for the framed wire codec: decoding
// must never panic, valid payloads must round-trip bit-exactly, and
// corrupt or truncated frames must be rejected at the frame layer.

import (
	"io"
	"math"
	"net"
	"testing"

	"grout/internal/core"
	"grout/internal/grcuda"
	"grout/internal/memmodel"
)

// sampleRequests covers every field of the Request layout.
func sampleRequests() []*Request {
	return []*Request{
		{},
		{Kind: MsgPing},
		{Kind: MsgEnsureArray, Meta: grcuda.ArrayMeta{ID: 42, Kind: memmodel.Int64, Len: 1 << 20}},
		{Kind: MsgReceiveArray, ArrayID: 7, Meta: grcuda.ArrayMeta{ID: 7, Kind: memmodel.Float64, Len: 5}},
		{Kind: MsgBuildKernel, Src: "extern \"C\" __global__ void k() {}", Signature: "pointer float"},
		{Kind: MsgPushTo, ArrayID: 3, PeerAddr: "127.0.0.1:9999"},
		{Kind: MsgLaunch, Inv: core.Invocation{Kernel: "axpy", Grid: 12, Block: 256,
			Args: []core.ArgRef{
				core.ArrRef(1), core.ArrRef(2),
				core.ScalarRef(math.Pi), core.ScalarRef(math.Inf(-1)),
				core.ScalarRef(math.NaN()),
			}}},
	}
}

func TestWireRequestRoundTrip(t *testing.T) {
	for i, req := range sampleRequests() {
		p := appendRequest(nil, req)
		got, err := parseRequest(p)
		if err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if !requestEq(req, got) {
			t.Fatalf("request %d: round trip mismatch: %+v vs %+v", i, req, got)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	for i, resp := range []*Response{
		{},
		{Err: "boom", Code: CodeGeneric},
		{Err: "no such array", Code: CodeArrayNotFound},
		{Kernels: 12, Arrays: 3, Elapsed: 1 << 40},
	} {
		p := appendResponse(nil, resp)
		got, err := parseResponse(p)
		if err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !responseEq(resp, got) {
			t.Fatalf("response %d: round trip mismatch: %+v vs %+v", i, resp, got)
		}
	}
}

func responseEq(a, b *Response) bool {
	return a.Err == b.Err && a.Code == b.Code &&
		a.Kernels == b.Kernels && a.Arrays == b.Arrays && a.Elapsed == b.Elapsed
}

// Truncations of a valid payload must all be rejected, never panic.
func TestWireRejectsTruncatedPayloads(t *testing.T) {
	for _, req := range sampleRequests() {
		p := appendRequest(nil, req)
		for cut := 0; cut < len(p); cut++ {
			if _, err := parseRequest(p[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes accepted", cut, len(p))
			}
		}
		// Trailing garbage must be rejected too: a frame length cannot
		// smuggle extra bytes.
		if _, err := parseRequest(append(append([]byte{}, p...), 0xff)); err == nil {
			t.Fatalf("trailing garbage accepted")
		}
	}
}

func FuzzWireRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := parseRequest(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		// Anything that decodes must re-encode to an equivalent request.
		p := appendRequest(nil, req)
		got, err := parseRequest(p)
		if err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if !requestEq(req, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, got)
		}
	})
}

func FuzzWireResponse(f *testing.F) {
	f.Add(appendResponse(nil, &Response{Err: "x", Code: CodeOOM, Kernels: 1}))
	f.Add(appendResponse(nil, &Response{Kernels: 12, Arrays: 3, Elapsed: 1 << 40}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := parseResponse(data)
		if err != nil {
			return
		}
		p := appendResponse(nil, resp)
		got, err := parseResponse(p)
		if err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if !responseEq(resp, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", resp, got)
		}
	})
}

// pipeConns builds a connected framed pair over an in-memory pipe.
func pipeConns() (*framedConn, *framedConn) {
	a, b := net.Pipe()
	return newFramedConn(a, nil), newFramedConn(b, nil)
}

func TestFramedRoundTripOverPipe(t *testing.T) {
	client, server := pipeConns()
	defer client.close()
	defer server.close()
	reqs := sampleRequests()
	want := reqs[len(reqs)-1] // the launch with NaN/Inf scalars
	go func() {
		_ = client.sendRequest(99, want)
	}()
	h, err := server.readHeader()
	if err != nil {
		t.Fatal(err)
	}
	if h.ftype != frameRequest || h.reqID != 99 {
		t.Fatalf("header = %+v", h)
	}
	bp, err := server.readPayload(h.n)
	if err != nil {
		t.Fatal(err)
	}
	defer putFrameBuf(bp)
	got, err := parseRequest(*bp)
	if err != nil {
		t.Fatal(err)
	}
	if !requestEq(want, got) {
		t.Fatalf("framed round trip mismatch")
	}
}

// Corrupt frame headers — oversize length, unknown type, truncation — must
// error out of readHeader rather than wedge or panic.
func TestFrameRejectsCorruptHeaders(t *testing.T) {
	t.Run("oversize", func(t *testing.T) {
		a, b := net.Pipe()
		fc := newFramedConn(b, nil)
		defer fc.close()
		go func() {
			var hdr [frameHeaderLen]byte
			hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0xff // ~4 GiB
			hdr[4] = frameRequest
			_, _ = a.Write(hdr[:])
		}()
		if _, err := fc.readHeader(); err == nil {
			t.Fatalf("oversize frame accepted")
		}
	})
	t.Run("unknown-type", func(t *testing.T) {
		a, b := net.Pipe()
		fc := newFramedConn(b, nil)
		defer fc.close()
		go func() {
			var hdr [frameHeaderLen]byte
			hdr[4] = 0x7f
			_, _ = a.Write(hdr[:])
		}()
		if _, err := fc.readHeader(); err == nil {
			t.Fatalf("unknown frame type accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		a, b := net.Pipe()
		fc := newFramedConn(b, nil)
		defer fc.close()
		go func() {
			_, _ = a.Write([]byte{1, 2, 3})
			_ = a.Close()
		}()
		if _, err := fc.readHeader(); err == nil {
			t.Fatalf("truncated header accepted")
		}
	})
}

func TestNormalizeChunk(t *testing.T) {
	if got := normalizeChunk(0); got != DefaultChunkBytes {
		t.Fatalf("normalizeChunk(0) = %d", got)
	}
	if got := normalizeChunk(1); got != 4<<10 {
		t.Fatalf("normalizeChunk(1) = %d", got)
	}
	if got := normalizeChunk(1 << 30); got > frameMaxPayload-chunkOffsetLen {
		t.Fatalf("normalizeChunk(1GiB) = %d exceeds frame limit", got)
	}
	if got := normalizeChunk(12345); got%8 != 0 {
		t.Fatalf("normalizeChunk(12345) = %d not 8-byte aligned", got)
	}
}

// A garbage hello that happens to carry the magic but an unknown channel
// byte must be dropped cleanly.
func TestWorkerRejectsUnknownChannelHello(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	raw, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte(helloMagic)
	hello = append(hello, 0x42, 0) // unknown channel
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection.
	buf := make([]byte, 1)
	_ = raw.SetReadDeadline(deadlineSoon())
	if _, err := raw.Read(buf); err == io.EOF {
		// closed, as expected
	} else if err == nil {
		t.Fatalf("server sent data on unknown channel")
	}
	_ = raw.Close()
	// And still serve real clients.
	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatalf("worker wedged after bad hello: %v", err)
	}
	defer fab.Close()
}
