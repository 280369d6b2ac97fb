package transport

// frame.go is the protocol's transport layer: length-prefixed frames over
// TCP, preceded by a 6-byte connection hello that names the channel
// (control, bulk or session). A connection that does not open with the
// hello magic is closed.
//
// Frame layout (little-endian):
//
//	u32 payload length  (bounded by frameMaxPayload)
//	u8  frame type
//	u64 request id
//	payload...
//
// Chunk frames additionally open their payload with a u64 byte offset;
// the remaining bytes are raw array data, written straight out of (and
// read straight into) kernels.Buffer storage. A request's chunk frames
// carry its request id and follow its request frame (outgoing payload) or
// precede its response frame (incoming payload) back to back: the bulk
// channel is FIFO like every other, and frames of two transfers never
// interleave.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"grout/internal/core"
)

// helloMagic opens every connection.
const helloMagic = "GRT\x01" // magic + wire version 1

const (
	// helloControl tags the low-latency request/response channel.
	helloControl byte = 0
	// helloBulk tags the chunked array-data channel.
	helloBulk byte = 1
	// helloSession tags a tenant session channel: a client program
	// talking to the multi-tenant gateway (internal/server) rather than
	// a controller talking to a worker.
	helloSession byte = 2
)

// helloLen is magic(4) + channel(1) + reserved(1).
const helloLen = 6

const (
	frameRequest  byte = 1 // payload: wire-encoded Request
	frameResponse byte = 2 // payload: wire-encoded Response
	frameChunk    byte = 3 // payload: u64 byte offset + raw array bytes
)

// frameHeaderLen is len(4) + type(1) + reqID(8).
const frameHeaderLen = 13

// frameMaxPayload bounds a single frame; larger lengths mark a corrupt or
// hostile stream. Bulk data always travels as chunks well below this.
const frameMaxPayload = 64 << 20

// chunkOffsetLen is the u64 byte-offset prefix of a chunk frame payload.
const chunkOffsetLen = 8

// chunkBytes is the size of the chunk frames outgoing payloads are cut
// into: large enough to amortize per-frame overhead to <0.01%, small
// enough that the receiver's scratch and each progress window stay short.
// Receivers accept any chunk length up to frameMaxPayload.
const chunkBytes = 256 << 10

// Default deadlines. A worker that accepts TCP but never replies must not
// stall the controller forever; these bound every phase of a conversation
// while staying far above any legitimate latency. All are configurable
// (DialOptions / ServerOptions); negative disables.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultTimeout is the progress deadline: while a peer owes a frame
	// — a control response, the next chunk of a transfer, an
	// acknowledgement — it must arrive within this window, so a multi-GiB
	// transfer gets unlimited total time while a wedged peer is detected
	// in one window.
	DefaultTimeout = 30 * time.Second
)

// pickTimeout resolves a configured timeout: zero means the default,
// negative disables (returns 0).
func pickTimeout(configured, def time.Duration) time.Duration {
	if configured == 0 {
		return def
	}
	if configured < 0 {
		return 0
	}
	return configured
}

// wrapNetErr classifies a connection-level failure for the Controller's
// retry logic: deadline expiries become core.ErrTimeout, everything else
// (resets, refusals, EOF from a dying peer) core.ErrTransient. Remote
// *execution* errors never pass through here — they arrive as clean
// Responses and must not look retryable.
func wrapNetErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, core.ErrTimeout) || errors.Is(err, core.ErrTransient) {
		return err
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", core.ErrTimeout, err)
	}
	return fmt.Errorf("%w: %v", core.ErrTransient, err)
}

// framePool recycles frame scratch buffers (headers + encoded payloads)
// across sends and receives.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte  { return framePool.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { *b = (*b)[:0]; framePool.Put(b) }

// chunkPool recycles bulk-chunk scratch (a worker's incoming chunks and
// the snapshots it sends) apart from framePool, so chunk-sized buffers do
// not displace the 4 KiB ones every control frame draws.
var chunkPool sync.Pool

// getChunkBuf returns pooled scratch of length n.
func getChunkBuf(n int) *[]byte {
	bp, _ := chunkPool.Get().(*[]byte)
	if bp == nil || cap(*bp) < n {
		b := make([]byte, n)
		bp = &b
	}
	*bp = (*bp)[:n]
	return bp
}

func putChunkBuf(b *[]byte) { chunkPool.Put(b) }

// framedConn is one framed channel. Frames collect in a write buffer
// (bufferFrame) and leave on flushFrames, so a burst of small frames costs
// one write; chunk frames are never copied into it but go out from where
// they lie, gathered behind the buffered bytes into one writev
// (writeChunk). Writes take wmu, and no write ends inside a frame. Reads
// are owned by a single reader (the pipeline's reader goroutine on
// clients, the serve loop on workers) and need no locking.
type framedConn struct {
	raw net.Conn
	r   *bufio.Reader

	wmu   sync.Mutex
	w     io.Writer // == raw normally; tests substitute fault injectors
	wbuf  []byte    // buffered frames; made on first use, under wmu
	iov   [3][]byte // scratch backing for writev, reused under wmu
	wbufs net.Buffers
	whdr  [frameHeaderLen + chunkOffsetLen]byte

	// rbuf is reader-side scratch for frame headers and chunk offsets; the
	// single reader goroutine owns it. A field rather than a local because
	// locals passed to io.ReadFull escape — one heap allocation per frame.
	rbuf [frameHeaderLen]byte

	// writeTimeout, when > 0, arms a write deadline before every write so
	// a peer that stops draining its socket cannot block a sender forever.
	// Read deadlines are the reader's business (pipeline.timeout).
	writeTimeout time.Duration

	cmu    sync.Mutex
	closed bool
	broken error // first fatal I/O error; the channel is dead after it
}

// newFramedConn wraps an established connection whose hello has already
// been exchanged. r reads from the connection (possibly through the
// worker's sniffing bufio.Reader).
func newFramedConn(raw net.Conn, r *bufio.Reader) *framedConn {
	if r == nil {
		r = bufio.NewReaderSize(raw, 64<<10)
	}
	return &framedConn{raw: raw, r: r, w: raw}
}

// dialFramed opens a framed channel of the given kind to addr. A positive
// timeout bounds both the TCP connect and the hello write; zero dials
// without a deadline (tests and legacy callers).
func dialFramed(addr string, channel byte, timeout time.Duration) (*framedConn, error) {
	var raw net.Conn
	var err error
	if timeout > 0 {
		raw, err = net.DialTimeout("tcp", addr, timeout)
	} else {
		raw, err = net.Dial("tcp", addr)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, wrapNetErr(err))
	}
	if timeout > 0 {
		_ = raw.SetWriteDeadline(time.Now().Add(timeout))
	}
	var hello [helloLen]byte
	copy(hello[:], helloMagic)
	hello[4] = channel
	if _, err := raw.Write(hello[:]); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("transport: hello to %s: %w", addr, wrapNetErr(err))
	}
	if timeout > 0 {
		_ = raw.SetWriteDeadline(time.Time{})
	}
	return newFramedConn(raw, nil), nil
}

// armRead sets the connection's read deadline d from now, or clears it
// when d is zero. Safe to call while another goroutine is blocked in a
// read — the runtime applies the new deadline to the in-flight read,
// which is exactly what lets the control channel bound an already-pending
// await.
func (c *framedConn) armRead(d time.Duration) {
	if d > 0 {
		_ = c.raw.SetReadDeadline(time.Now().Add(d))
	} else {
		_ = c.raw.SetReadDeadline(time.Time{})
	}
}

// fail records the first fatal error and tears the connection down so the
// peer's reader unblocks.
func (c *framedConn) fail(err error) error {
	c.cmu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	err = c.broken
	if !c.closed {
		c.closed = true
		_ = c.raw.Close()
	}
	c.cmu.Unlock()
	return err
}

// brokenErr reports the recorded fatal error, if any.
func (c *framedConn) brokenErr() error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	return c.broken
}

// Close implements io.Closer (the worker's connection tracking).
func (c *framedConn) Close() error { return c.close() }

func (c *framedConn) close() error {
	c.cmu.Lock()
	if c.closed {
		c.cmu.Unlock()
		return nil
	}
	c.closed = true
	c.cmu.Unlock()
	return c.raw.Close()
}

// putFrameHeader encodes a frame header for an n-byte payload into hdr.
func putFrameHeader(hdr []byte, n int, ftype byte, reqID uint64) []byte {
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	hdr[4] = ftype
	binary.LittleEndian.PutUint64(hdr[5:], reqID)
	return hdr
}

// ctrlWriteBuffer sizes a connection's write buffer: a full default
// pipeline (64 launch frames of ~150 bytes) fits, so a burst is one write.
const ctrlWriteBuffer = 16 << 10

// bufferFrame appends one frame to the connection's write buffer; it
// reaches the wire on flushFrames, or earlier when the buffer has no room
// for the next frame — but never in pieces: the buffer is flushed before a
// frame that does not fit, and a frame larger than the whole buffer goes
// out behind the buffered ones in one gather write. A write that ended
// inside a frame would leave the peer holding its answers back for the
// rest of it (SessionConn.RequestWaiting, WorkerServer.serveConn) while
// this side may be holding that rest back for those answers.
func (c *framedConn) bufferFrame(ftype byte, reqID uint64, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return err
	}
	if c.wbuf == nil {
		c.wbuf = make([]byte, 0, ctrlWriteBuffer)
	}
	hdr := putFrameHeader(c.whdr[:frameHeaderLen], len(p), ftype, reqID)
	var err error
	switch n := frameHeaderLen + len(p); {
	case n > cap(c.wbuf):
		err = c.writev(hdr, p)
	case n > cap(c.wbuf)-len(c.wbuf):
		if err = c.writev(); err == nil {
			c.wbuf = append(append(c.wbuf, hdr...), p...)
		}
	default:
		c.wbuf = append(append(c.wbuf, hdr...), p...)
	}
	if err != nil {
		return c.fail(fmt.Errorf("transport: write frame: %w", wrapNetErr(err)))
	}
	return nil
}

// flushFrames sends whatever bufferFrame has collected.
func (c *framedConn) flushFrames() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(c.wbuf) == 0 {
		return nil
	}
	if err := c.brokenErr(); err != nil {
		return err
	}
	if err := c.writev(); err != nil {
		return c.fail(fmt.Errorf("transport: write frame: %w", wrapNetErr(err)))
	}
	return nil
}

// writeChunk sends one chunk frame — data, at byte offset off of request
// reqID's payload, straight from where it lies — behind the buffered
// frames in one gather write: a request and its single chunk cost one
// write.
func (c *framedConn) writeChunk(reqID uint64, off int, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return err
	}
	hdr := putFrameHeader(c.whdr[:], chunkOffsetLen+len(data), frameChunk, reqID)
	binary.LittleEndian.PutUint64(hdr[frameHeaderLen:], uint64(off))
	if err := c.writev(hdr, data); err != nil {
		return c.fail(fmt.Errorf("transport: write chunk: %w", wrapNetErr(err)))
	}
	return nil
}

// writeChunks streams data as request reqID's chunk frames, chunk bytes
// each. A nil lock means nothing writes data meanwhile and chunks go out
// straight from it; otherwise data is live storage its writers update
// under lock (a worker's array), and each chunk is copied out under it and
// sent without it, so a slow peer never stalls them.
func (c *framedConn) writeChunks(reqID uint64, data []byte, chunk int, lock sync.Locker) error {
	var scratch []byte
	if lock != nil {
		sp := getChunkBuf(min(chunk, len(data)))
		defer putChunkBuf(sp)
		scratch = *sp
	}
	for off := 0; off < len(data); off += chunk {
		part := data[off:min(off+chunk, len(data))]
		if lock != nil {
			lock.Lock()
			part = scratch[:copy(scratch, part)]
			lock.Unlock()
		}
		if err := c.writeChunk(reqID, off, part); err != nil {
			return err
		}
	}
	return nil
}

// writev sends the buffered frames, then bufs, as one gather write (a
// single syscall on TCP conns) under the write deadline, and empties the
// buffer. The net.Buffers header lives on the connection — WriteTo
// consumes the slice, so it is rebuilt from the iov backing each call
// without allocating. Callers hold wmu.
func (c *framedConn) writev(bufs ...[]byte) error {
	iov := c.iov[:0]
	if len(c.wbuf) > 0 {
		iov = append(iov, c.wbuf)
	}
	c.wbufs = append(iov, bufs...)
	if c.writeTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err := c.wbufs.WriteTo(c.w)
	c.wbufs = nil
	clear(c.iov[:])
	c.wbuf = c.wbuf[:0]
	return err
}

// frameHeader is one decoded frame header.
type frameHeader struct {
	n     int
	ftype byte
	reqID uint64
}

// readHeader reads and validates the next frame header. The caller owns
// consuming exactly n payload bytes afterwards (readPayload / readInto /
// discardPayload).
func (c *framedConn) readHeader() (frameHeader, error) {
	hdr := c.rbuf[:frameHeaderLen]
	if _, err := io.ReadFull(c.r, hdr); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{
		n:     int(binary.LittleEndian.Uint32(hdr)),
		ftype: hdr[4],
		reqID: binary.LittleEndian.Uint64(hdr[5:]),
	}
	if h.n > frameMaxPayload {
		return frameHeader{}, fmt.Errorf("transport: frame of %d bytes exceeds limit", h.n)
	}
	switch h.ftype {
	case frameRequest, frameResponse, frameChunk:
	default:
		return frameHeader{}, fmt.Errorf("transport: unknown frame type %d", h.ftype)
	}
	return h, nil
}

// readPayload reads an n-byte payload into a pooled buffer. Callers must
// putFrameBuf the result.
func (c *framedConn) readPayload(n int) (*[]byte, error) {
	bp := getFrameBuf()
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	if _, err := io.ReadFull(c.r, *bp); err != nil {
		putFrameBuf(bp)
		return nil, err
	}
	return bp, nil
}

// readChunkOffset reads a chunk payload's u64 byte-offset prefix.
func (c *framedConn) readChunkOffset() (int, error) {
	off := c.rbuf[:chunkOffsetLen]
	if _, err := io.ReadFull(c.r, off); err != nil {
		return 0, err
	}
	return int(binary.LittleEndian.Uint64(off)), nil
}

// readInto fills dst from the connection (chunk payloads land directly in
// buffer storage).
func (c *framedConn) readInto(dst []byte) error {
	_, err := io.ReadFull(c.r, dst)
	return err
}

// discardPayload drops n payload bytes (chunks of an aborted transfer).
func (c *framedConn) discardPayload(n int) error {
	_, err := c.r.Discard(n)
	return err
}

// bufferResponse encodes resp into the write buffer (control channels).
func (c *framedConn) bufferResponse(reqID uint64, resp *Response) error {
	bp := getFrameBuf()
	*bp = appendResponse(*bp, resp)
	err := c.bufferFrame(frameResponse, reqID, *bp)
	putFrameBuf(bp)
	return err
}
