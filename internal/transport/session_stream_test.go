package transport

// Tests of the buffered write path under the session channel: what a
// pipelined burst costs in writes on both ends, and that no write ever
// ends inside a frame.

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// TestSessionChannelCoalescesWrites: K requests started behind each other
// cost fewer than K writes on both ends (one, on loopback), and K blocking
// calls cost exactly K on both — buffering never delays a frame nobody is
// behind. The serving side is the gateway's loop: answer into the buffer,
// flush when no further request is waiting.
func TestSessionChannelCoalescesWrites(t *testing.T) {
	const k = 32
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *SessionConn, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		conn, err := AcceptSession(raw, 0)
		if err != nil {
			_ = raw.Close()
			close(accepted)
			return
		}
		accepted <- conn
	}()
	client, err := DialSession(ln.Addr().String(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	gateway := <-accepted
	if gateway == nil {
		t.Fatal("session accept failed")
	}
	defer gateway.Close()
	cw, gw := countWrites(client.fc), countWrites(gateway.fc)
	var stall sync.Mutex // held: the serving side reads but does not answer
	go func() {
		var req SessionRequest
		for {
			id, err := gateway.ReadRequest(&req)
			if err != nil {
				return
			}
			stall.Lock()
			stall.Unlock()
			if gateway.BufferReply(id, &SessionResponse{}) != nil {
				return
			}
			if !gateway.RequestWaiting() && gateway.Flush() != nil {
				return
			}
		}
	}()

	ping := &SessionRequest{Kind: SessPing}
	for i := 0; i < k; i++ {
		if _, err := client.Call(ping); err != nil {
			t.Fatal(err)
		}
	}
	if c, g := cw.n.Load(), gw.n.Load(); c != k || g != k {
		t.Fatalf("depth 1: %d client and %d gateway writes for %d calls, want %d each", c, g, k, k)
	}

	// Depth K: the serving side is stalled while the burst goes out, so
	// every request is in its read buffer when it starts answering.
	var wg sync.WaitGroup
	wg.Add(k)
	stall.Lock()
	for i := 0; i < k; i++ {
		if err := client.Start(ping, func(_ *SessionResponse, err error) {
			if err != nil {
				t.Errorf("pipelined request: %v", err)
			}
			wg.Done()
		}); err != nil {
			stall.Unlock()
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		stall.Unlock()
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the burst land before the answers start
	stall.Unlock()
	wg.Wait()
	if c, g := cw.n.Load()-k, gw.n.Load()-k; c >= k || g >= k || c < 1 || g < 1 {
		t.Fatalf("depth %d: %d client and %d gateway writes, want fewer than %d each", k, c, g, k)
	}
}

// chunkRecorder keeps every write it receives. A frame larger than the
// write buffer leaves as one gather write, which anything but a TCP
// connection sees as two — a bare header, then the payload; those are put
// back together.
type chunkRecorder struct {
	chunks [][]byte
	gather bool // the last chunk is the header half of a gather write
}

func (r *chunkRecorder) Write(p []byte) (int, error) {
	if r.gather {
		last := &r.chunks[len(r.chunks)-1]
		*last = append(*last, p...)
		r.gather = false
		return len(p), nil
	}
	r.chunks = append(r.chunks, append([]byte(nil), p...))
	r.gather = len(p) == frameHeaderLen && int(binary.LittleEndian.Uint32(p)) > ctrlWriteBuffer-frameHeaderLen
	return len(p), nil
}

// TestBufferedFramesLeaveWhole: however frames fill the write buffer — a
// run far longer than it, a frame larger than it — every write ends on a
// frame boundary. The peer holds its answers back while part of a request
// is buffered, so a frame split across two writes, the second of them
// waiting for those answers, is a deadlock.
func TestBufferedFramesLeaveWhole(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFramedConn(a, nil)
	rec := &chunkRecorder{}
	fc.w = rec
	sizes := make([]int, 0, 260)
	for i := 0; i < 250; i++ {
		sizes = append(sizes, 100+i) // 250 frames, ~56 KiB: several buffers' worth
	}
	sizes = append(sizes, 3*ctrlWriteBuffer, 7, ctrlWriteBuffer-frameHeaderLen, 1, ctrlWriteBuffer, 0)
	payload := make([]byte, 3*ctrlWriteBuffer)
	for i, n := range sizes {
		if err := fc.bufferFrame(frameRequest, uint64(i+1), payload[:n]); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.chunks) < 4 {
		t.Fatalf("only %d writes before the flush: the buffer never filled", len(rec.chunks))
	}
	if err := fc.flushFrames(); err != nil {
		t.Fatal(err)
	}
	next := 0
	for w, chunk := range rec.chunks {
		if len(chunk) > 3*ctrlWriteBuffer+frameHeaderLen {
			t.Fatalf("write %d is %d bytes, larger than any frame or the buffer", w, len(chunk))
		}
		for len(chunk) > 0 {
			if len(chunk) < frameHeaderLen {
				t.Fatalf("write %d ends inside the header of frame %d", w, next+1)
			}
			n := int(binary.LittleEndian.Uint32(chunk))
			id := binary.LittleEndian.Uint64(chunk[5:])
			if next >= len(sizes) || id != uint64(next+1) || n != sizes[next] {
				t.Fatalf("write %d: frame id %d of %d bytes where frame %d belongs", w, id, n, next+1)
			}
			if len(chunk) < frameHeaderLen+n {
				t.Fatalf("write %d ends %d bytes into the %d-byte frame %d", w, len(chunk)-frameHeaderLen, n, next+1)
			}
			chunk = chunk[frameHeaderLen+n:]
			next++
		}
	}
	if next != len(sizes) {
		t.Fatalf("%d of %d frames written", next, len(sizes))
	}
}
