package transport

// pipeline.go is the FIFO-pipelined RPC machine both request/response
// wires run on: the worker control channel (ctrlConn, protocol.go) and the
// client side of the tenant session channel (SessionConn, session.go). The
// two differ only in their frames' payload codecs (wireCodec); the ring,
// the reader goroutine, the read deadline and the failure fan-out exist
// once, here.

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

// pending is one request awaiting its answer.
type pending[Resp any] struct {
	id   uint64
	kind string
	done func(*Resp, error)
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
	// timeout, when > 0, bounds the wait for the next response while any
	// request is outstanding (writes carry the framedConn's own write
	// deadline). An idle pipeline never times out.
	timeout time.Duration

	// smu orders starts: a request takes its ring slot and its place in the
	// write buffer under one hold, so ring order is wire order. The reader
	// never takes it — a start blocked on a full socket must not stop the
	// reader from draining the responses the peer is blocked on.
	smu sync.Mutex
	seq uint64

	// mu guards the ring and the read deadline: armed when the ring
	// becomes non-empty, re-armed per response, cleared when it empties.
	// Arming outside mu could let the reader's clear erase a deadline a
	// concurrent start just set, and a hung peer would then hang forever.
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

// start queues one request: done runs exactly once, on the reader
// goroutine, with the response (valid only during the call) or the
// pipeline's failure, and must not block. A non-nil return means the
// request was not queued and done will not run. The request is encoded
// before start returns; its frame goes out on the next flush (or when the
// write buffer fills).
func (c *pipeline[Req, Resp]) start(req *Req, done func(*Resp, error)) error {
	bp := getFrameBuf()
	*bp = c.wire.encode(*bp, req)
	c.smu.Lock()
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		c.smu.Unlock()
		putFrameBuf(bp)
		return err
	}
	c.seq++
	id := c.seq
	if c.head == len(c.ring) && c.timeout > 0 {
		c.fc.armRead(c.timeout)
	}
	if c.head > 0 && len(c.ring) == cap(c.ring) {
		n := copy(c.ring, c.ring[c.head:])
		clear(c.ring[n:])
		c.ring, c.head = c.ring[:n], 0
	}
	c.ring = append(c.ring, pending[Resp]{id: id, kind: c.wire.kind(req), done: done})
	c.mu.Unlock()
	// The entry is in the ring before its frame is written, and mu is not
	// held across the write. A failed write tears the connection down, so
	// the reader fails the ring — this request included.
	_ = c.fc.bufferFrame(frameRequest, id, *bp)
	c.smu.Unlock()
	putFrameBuf(bp)
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

// call performs one blocking round trip. The error is the transport's
// only; a remote failure travels inside the response.
func (c *pipeline[Req, Resp]) call(req *Req) (Resp, error) {
	var zero Resp
	w := c.waiters.Get().(*waiter[Resp])
	if err := c.start(req, w.fn); err != nil {
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

// readLoop answers the ring in order until the pipeline dies.
func (c *pipeline[Req, Resp]) readLoop() {
	defer close(c.exited)
	var resp Resp
	for {
		h, err := c.fc.readHeader()
		if err != nil {
			c.failAll(wrapNetErr(err))
			return
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
			if c.head == len(c.ring) {
				c.fc.armRead(0)
			} else {
				c.fc.armRead(c.timeout)
			}
		}
		c.mu.Unlock()
		p.done(&resp, nil)
	}
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
