package transport

// Fuzz and adversarial-input tests for the framed wire codec and the
// worker's serve loop: decoding must never panic, valid payloads must
// round-trip bit-exactly, and corrupt or truncated frames must be rejected
// at the frame layer.

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

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
		if client.bufferFrame(frameRequest, 99, appendRequest(nil, want)) == nil {
			_ = client.flushFrames()
		}
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

// FuzzWorkerServe feeds arbitrary bytes after a bulk hello into a worker's
// serve loop over an in-memory pipe: it must never panic, and it must
// return once the input ends. The worker holds no arrays, so no input can
// make it dial a peer.
func FuzzWorkerServe(f *testing.F) {
	w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = w.Close() })
	frame := func(dst []byte, ftype byte, id uint64, p []byte) []byte {
		var hdr [frameHeaderLen]byte
		return append(append(dst, putFrameHeader(hdr[:], len(p), ftype, id)...), p...)
	}
	chunk := func(dst []byte, id uint64, off int, n int) []byte {
		p := binary.LittleEndian.AppendUint64(nil, uint64(off))
		return frame(dst, frameChunk, id, append(p, make([]byte, n)...))
	}
	recv := appendRequest(nil, &Request{Kind: MsgReceiveArray, ArrayID: 1,
		Meta: grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: 4}})
	f.Add(chunk(frame(nil, frameRequest, 1, recv), 1, 0, 16))
	f.Add(chunk(chunk(frame(nil, frameRequest, 1, recv), 1, 0, 8), 1, 0, 8))
	f.Add(frame(nil, frameRequest, 1, appendRequest(nil, &Request{Kind: MsgFetchArray, ArrayID: 1})))
	f.Add(frame(nil, frameRequest, 1, appendRequest(nil, &Request{Kind: MsgPushTo, ArrayID: 1, PeerAddr: "127.0.0.1:1"})))
	f.Add(frame(frame(nil, frameRequest, 1, appendRequest(nil, &Request{Kind: MsgPing})), frameRequest, 2,
		appendRequest(nil, &Request{Kind: MsgLaunch})))
	f.Add(chunk(nil, 7, 0, 16))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		go func() { _, _ = io.Copy(io.Discard, client) }()
		done := make(chan struct{})
		go func() {
			w.serveConn(server)
			close(done)
		}()
		hello := append([]byte(helloMagic), helloBulk, 0)
		if _, err := client.Write(append(hello, data...)); err != nil && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatal(err)
		}
		_ = client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("serve loop still running after its input ended")
		}
	})
}
