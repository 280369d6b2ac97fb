package transport

// pipeline.go is the FIFO-pipelined RPC machine every request/response
// wire runs on: the worker control and bulk channels and the worker→worker
// peer links (rpcConn, protocol.go), and the client side of the tenant
// session channel (SessionConn, session.go). They differ only in their
// frames' payload codecs (wireCodec) and in the array bytes a bulk request
// moves (transfer); the ring, the reader goroutine, the read deadline and
// the failure fan-out exist once, here.

import (
	"fmt"
	"sync"
	"time"
)

// wireCodec is everything that distinguishes one request/response wire
// from the other.
type wireCodec[Req, Resp any] struct {
	// noun names the wire in error messages ("" or "session ").
	noun   string
	kind   func(*Req) string
	encode func(dst []byte, req *Req) []byte
	decode func(p []byte, resp *Resp) error
}

// transfer is the array payload a bulk request moves besides its own
// frame. The peer serves the connection in order, so payloads never
// interleave: a request's outgoing chunks follow its frame back to back,
// and the chunks streamed toward it arrive right before its answer.
type transfer struct {
	// send leaves as chunk frames of chunk bytes right behind the request
	// (see framedConn.writeChunks for lock).
	send  []byte
	chunk int
	lock  sync.Locker
	// recv takes the chunk frames the peer streams before its answer, in
	// order; an answer after fewer bytes than recv holds fails the request.
	recv []byte
	// untimed marks a request whose answer may take as long as the work it
	// commands (a P2P push): no read deadline runs while it is the oldest
	// outstanding.
	untimed bool
}

// pending is one request awaiting its answer.
type pending[Resp any] struct {
	id   uint64
	kind string
	done func(*Resp, error)
	recv []byte
	// owed marks a request the peer owes a frame now: from its start, or
	// from its last chunk when it carries a payload, unless untimed.
	owed bool
}

// pipeline is a FIFO-pipelined request/response stream over one framed
// connection. The peer serves the connection strictly in order, so
// outstanding requests are a ring, not a map: start appends a request to
// the ring and to the connection's write buffer, flush puts the buffered
// frames on the wire, and one reader goroutine pops the ring head for every
// response and runs its done inline. Any number of requests may be
// outstanding; call is start + flush + wait.
//
// A pipeline that fails — peer gone, corrupt stream, read deadline — fails
// every outstanding request in ring order and every later start.
type pipeline[Req, Resp any] struct {
	fc   *framedConn
	wire *wireCodec[Req, Resp]
	// timeout, when > 0, bounds the wait for the next frame while the ring
	// head is owed one (writes carry the framedConn's own write deadline).
	// An idle pipeline, or one whose head is untimed, never times out.
	timeout time.Duration

	// smu orders starts: a request takes its ring slot and its place on the
	// wire — its payload included — under one hold, so ring order is wire
	// order. The reader never takes it — a start blocked on a full socket
	// must not stop the reader from draining the responses the peer is
	// blocked on.
	smu sync.Mutex
	seq uint64

	// mu guards the ring and the read deadline, which follows the ring
	// head: armed while the peer owes the head a frame, re-armed per frame,
	// cleared otherwise. Arming outside mu could let the reader's clear
	// erase a deadline a concurrent start just set, and a hung peer would
	// then hang forever.
	mu   sync.Mutex
	ring []pending[Resp] // outstanding requests are ring[head:]
	head int
	dead error

	// exited is closed when the reader goroutine returns.
	exited chan struct{}
	// waiters recycles call's rendezvous with the reader.
	waiters sync.Pool
}

func newPipeline[Req, Resp any](fc *framedConn, wire *wireCodec[Req, Resp], timeout time.Duration) *pipeline[Req, Resp] {
	c := &pipeline[Req, Resp]{fc: fc, wire: wire, timeout: timeout, exited: make(chan struct{})}
	c.waiters.New = func() any {
		w := &waiter[Resp]{ch: make(chan struct{}, 1)}
		w.fn = func(resp *Resp, err error) {
			if resp != nil {
				w.resp = *resp
			}
			w.err = err
			w.ch <- struct{}{}
		}
		return w
	}
	go c.readLoop()
	return c
}

// close tears the pipeline down; the reader fails whatever is outstanding
// and exits.
func (c *pipeline[Req, Resp]) close() error { return c.fc.close() }

// broken reports the connection's fatal error, if any. A write failure
// records it synchronously, before the reader notices the teardown.
func (c *pipeline[Req, Resp]) broken() error { return c.fc.brokenErr() }

// start queues one request, moving x's payload when x is non-nil: done
// runs exactly once, on the reader goroutine, with the response (valid only
// during the call) or the pipeline's failure, and must not block. A non-nil
// return means the request was not queued and done will not run. The
// request is encoded before start returns; its frame goes out on the next
// flush (or when the write buffer fills), or with its first chunk.
func (c *pipeline[Req, Resp]) start(req *Req, x *transfer, done func(*Resp, error)) error {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	*bp = c.wire.encode(*bp, req)
	p := pending[Resp]{kind: c.wire.kind(req), done: done, owed: true}
	if x != nil {
		p.recv, p.owed = x.recv, !x.untimed && len(x.send) == 0
	}
	c.smu.Lock()
	defer c.smu.Unlock()
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return c.dead
	}
	c.seq++
	p.id = c.seq
	if c.head == len(c.ring) && p.owed && c.timeout > 0 {
		c.fc.armRead(c.timeout)
	}
	if c.head > 0 && len(c.ring) == cap(c.ring) {
		n := copy(c.ring, c.ring[c.head:])
		clear(c.ring[n:])
		c.ring, c.head = c.ring[:n], 0
	}
	c.ring = append(c.ring, p)
	c.mu.Unlock()
	// The entry is in the ring before its frames are written, and mu is not
	// held across the writes. A failed write tears the connection down, so
	// the reader fails the ring — this request included.
	if c.fc.bufferFrame(frameRequest, p.id, *bp) != nil || x == nil || len(x.send) == 0 {
		return nil
	}
	if c.fc.writeChunks(p.id, x.send, x.chunk, x.lock) == nil && !x.untimed {
		// The last chunk is out: from here the peer owes the answer.
		c.mu.Lock()
		if last := len(c.ring) - 1; last >= c.head && c.ring[last].id == p.id {
			c.ring[last].owed = true
			if last == c.head && c.timeout > 0 {
				c.fc.armRead(c.timeout)
			}
		}
		c.mu.Unlock()
	}
	return nil
}

// flush puts every buffered request on the wire. Callers flush before
// they wait for an answer; a failure surfaces through the done callbacks.
func (c *pipeline[Req, Resp]) flush() { _ = c.fc.flushFrames() }

// waiter is call's rendezvous with the reader goroutine.
type waiter[Resp any] struct {
	resp Resp
	err  error
	ch   chan struct{}
	fn   func(*Resp, error)
}

// call performs one blocking round trip, moving x's payload when x is
// non-nil. The error is the transport's only; a remote failure travels
// inside the response, which a short incoming stream's error accompanies.
func (c *pipeline[Req, Resp]) call(req *Req, x *transfer) (Resp, error) {
	var zero Resp
	w := c.waiters.Get().(*waiter[Resp])
	if err := c.start(req, x, w.fn); err != nil {
		c.waiters.Put(w)
		return zero, fmt.Errorf("transport: send %s%s: %w", c.wire.noun, c.wire.kind(req), err)
	}
	c.flush()
	<-w.ch
	resp, err := w.resp, w.err
	w.resp, w.err = zero, nil
	c.waiters.Put(w)
	return resp, err
}

// readLoop answers the ring in order until the pipeline dies: chunk frames
// land in the ring head's recv, a response pops the head.
func (c *pipeline[Req, Resp]) readLoop() {
	defer close(c.exited)
	var resp Resp
	got := 0 // chunk bytes the ring head has received
	for {
		h, err := c.fc.readHeader()
		if err != nil {
			c.failAll(wrapNetErr(err))
			return
		}
		if h.ftype == frameChunk {
			if got, err = c.readChunk(h, got); err != nil {
				c.failAll(err)
				return
			}
			continue
		}
		if h.ftype != frameResponse {
			// The client end of a request/response wire receives nothing
			// else; anything different marks a corrupt stream.
			c.failAll(fmt.Errorf("unexpected frame type %d id %d", h.ftype, h.reqID))
			return
		}
		bp, err := c.fc.readPayload(h.n)
		if err != nil {
			c.failAll(wrapNetErr(err))
			return
		}
		perr := c.wire.decode(*bp, &resp)
		putFrameBuf(bp)
		if perr != nil {
			c.failAll(perr)
			return
		}
		c.mu.Lock()
		if c.head == len(c.ring) || c.ring[c.head].id != h.reqID {
			c.mu.Unlock()
			c.failAll(fmt.Errorf("response %d answers no outstanding request", h.reqID))
			return
		}
		p := c.ring[c.head]
		c.ring[c.head] = pending[Resp]{}
		c.head++
		if c.head == len(c.ring) {
			c.ring, c.head = c.ring[:0], 0
		}
		if c.timeout > 0 {
			if c.head == len(c.ring) || !c.ring[c.head].owed {
				c.fc.armRead(0)
			} else {
				c.fc.armRead(c.timeout)
			}
		}
		c.mu.Unlock()
		if got < len(p.recv) {
			err = fmt.Errorf("transport: %s%s answered after %d of %d bytes", c.wire.noun, p.kind, got, len(p.recv))
		}
		got = 0
		p.done(&resp, err)
	}
}

// readChunk lands one chunk frame in the ring head's recv, where the last
// one ended, and restarts the head's progress window; it returns the
// head's byte count. A chunk for another request, out of order or past the
// end of recv marks a corrupt stream.
func (c *pipeline[Req, Resp]) readChunk(h frameHeader, got int) (int, error) {
	c.mu.Lock()
	var recv []byte
	ok := c.head < len(c.ring) && c.ring[c.head].id == h.reqID
	if ok {
		recv = c.ring[c.head].recv
		if c.ring[c.head].owed && c.timeout > 0 {
			c.fc.armRead(c.timeout)
		}
	}
	c.mu.Unlock()
	if !ok || h.n < chunkOffsetLen {
		return 0, fmt.Errorf("chunk frame of %d bytes for request %d, not the oldest outstanding", h.n, h.reqID)
	}
	off, err := c.fc.readChunkOffset()
	if err != nil {
		return 0, wrapNetErr(err)
	}
	n := h.n - chunkOffsetLen
	if off != got || n > len(recv)-got {
		return 0, fmt.Errorf("chunk [%d, %d) of request %d: %d of %d bytes received", off, off+n, h.reqID, got, len(recv))
	}
	if err := c.fc.readInto(recv[got : got+n]); err != nil {
		return 0, wrapNetErr(err)
	}
	return got + n, nil
}

// failAll marks the pipeline dead and fails every outstanding request, in
// ring order, with the connection's first fatal error (a write failure
// that tore the connection down takes precedence over the reader's
// less specific view of the teardown).
func (c *pipeline[Req, Resp]) failAll(err error) {
	err = c.fc.fail(err)
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	pend := c.ring[c.head:]
	c.ring, c.head = nil, 0
	c.mu.Unlock()
	for _, p := range pend {
		p.done(nil, fmt.Errorf("transport: await %s%s: %w", c.wire.noun, p.kind, err))
	}
}
