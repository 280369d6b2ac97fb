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
// read straight into) kernels.Buffer storage. Frame writes are atomic
// under a per-connection mutex, so chunks of concurrent transfers
// interleave on the bulk channel instead of queuing whole-payload.

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

// DefaultChunkBytes is the default bulk-transfer chunk size. 256 KiB is
// large enough to amortize per-frame overhead to <0.01% and small enough
// that interleaved transfers get scheduled fairly.
const DefaultChunkBytes = 256 << 10

// Default deadlines. A worker that accepts TCP but never replies must not
// stall the controller forever; these bound every phase of a conversation
// while staying far above any legitimate latency. All are configurable
// (DialOptions / ServerOptions); negative disables.
const (
	// DefaultDialTimeout bounds connection establishment.
	DefaultDialTimeout = 5 * time.Second
	// DefaultCallTimeout bounds one control round trip (ping, launch,
	// build, ensure, free).
	DefaultCallTimeout = 30 * time.Second
	// DefaultChunkTimeout bounds *progress* on a bulk transfer: each
	// chunk (or the final response) must arrive within this window, so a
	// multi-GiB transfer gets unlimited total time while a wedged peer is
	// detected in one window.
	DefaultChunkTimeout = 30 * time.Second
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

// normalizeChunk clamps a configured chunk size to a sane, 8-byte-aligned
// value (alignment keeps chunk boundaries on element boundaries for every
// element kind).
func normalizeChunk(n int) int {
	if n <= 0 {
		n = DefaultChunkBytes
	}
	if n < 4<<10 {
		n = 4 << 10
	}
	if n > frameMaxPayload-chunkOffsetLen {
		n = frameMaxPayload - chunkOffsetLen
	}
	return n &^ 7
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

// framedConn is one framed channel. Writes take wmu and go out with a
// single writev (net.Buffers), so a frame is never torn; reads are owned
// by a single reader (the demux goroutine on clients, the serve loop on
// workers) and need no locking. Control and session channels write through
// bw instead (bufferFrame / flushFrames), so a burst of small frames costs
// one write; a connection uses one of the two write paths, never both.
type framedConn struct {
	raw net.Conn
	r   *bufio.Reader

	wmu   sync.Mutex
	w     io.Writer // == raw normally; tests substitute fault injectors
	iov   [4][]byte // scratch backing for writev, reused under wmu
	wbufs net.Buffers
	whdr  [2*frameHeaderLen + chunkOffsetLen]byte // a request header and a chunk header
	bw    *bufio.Writer                           // control and session channels; made on first use, under wmu

	// rbuf is reader-side scratch for frame headers and chunk offsets; the
	// single reader goroutine owns it. A field rather than a local because
	// locals passed to io.ReadFull escape — one heap allocation per frame.
	rbuf [frameHeaderLen]byte

	// writeTimeout, when > 0, arms a write deadline before every frame so
	// a peer that stops draining its socket cannot block a sender
	// forever. Read deadlines are the reader's business: the control
	// channel arms per round trip, the bulk channel per progress window.
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

// armWrite arms the per-frame write deadline, if configured. Callers hold
// wmu.
func (c *framedConn) armWrite() {
	if c.writeTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout))
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

// writeFrame sends one frame whose payload is entirely in p.
func (c *framedConn) writeFrame(ftype byte, reqID uint64, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return err
	}
	hdr := putFrameHeader(c.whdr[:frameHeaderLen], len(p), ftype, reqID)
	c.armWrite()
	if err := c.writev(hdr, p); err != nil {
		return c.fail(fmt.Errorf("transport: write frame: %w", wrapNetErr(err)))
	}
	return nil
}

// putFrameHeader encodes a frame header for an n-byte payload into hdr.
func putFrameHeader(hdr []byte, n int, ftype byte, reqID uint64) []byte {
	binary.LittleEndian.PutUint32(hdr, uint32(n))
	hdr[4] = ftype
	binary.LittleEndian.PutUint64(hdr[5:], reqID)
	return hdr
}

// ctrlWriteBuffer sizes a control or session channel's write buffer: a
// full default pipeline (64 launch frames of ~150 bytes) fits, so a burst
// is one write.
const ctrlWriteBuffer = 16 << 10

// frameSink is where a connection's write buffer drains: each flush
// arms the write deadline and goes to c.w (read at write time, so a
// test's substituted writer sees it). Runs under wmu.
type frameSink struct{ c *framedConn }

func (s frameSink) Write(p []byte) (int, error) {
	s.c.armWrite()
	return s.c.w.Write(p)
}

// bufferFrame appends one frame to the connection's write buffer; it
// reaches the wire on flushFrames, or earlier when the buffer has no room
// for the next frame — but never in pieces: the buffer is flushed before a
// frame that does not fit, and a frame larger than the whole buffer goes
// out on its own. A write that ended inside a frame would leave the peer
// holding its answers back for the rest of it (SessionConn.RequestWaiting,
// serveControl) while this side may be holding that rest back for those
// answers.
func (c *framedConn) bufferFrame(ftype byte, reqID uint64, p []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return err
	}
	if c.bw == nil {
		c.bw = bufio.NewWriterSize(frameSink{c}, ctrlWriteBuffer)
	}
	hdr := putFrameHeader(c.whdr[:frameHeaderLen], len(p), ftype, reqID)
	var err error
	n := frameHeaderLen + len(p)
	if n > c.bw.Available() {
		err = c.bw.Flush()
	}
	switch {
	case err != nil:
	case n > c.bw.Size():
		c.armWrite()
		err = c.writev(hdr, p)
	default:
		if _, err = c.bw.Write(hdr); err == nil {
			_, err = c.bw.Write(p)
		}
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
	if c.bw == nil || c.bw.Buffered() == 0 {
		return nil
	}
	if err := c.brokenErr(); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(fmt.Errorf("transport: write frame: %w", wrapNetErr(err)))
	}
	return nil
}

// writev sends bufs (at most len(c.iov)) in order as one gather write (a
// single syscall on TCP conns). The net.Buffers header lives on the
// connection — WriteTo consumes the slice, so it is rebuilt from the iov
// backing each call without allocating. Callers hold wmu.
func (c *framedConn) writev(bufs ...[]byte) error {
	c.wbufs = c.iov[:copy(c.iov[:], bufs)]
	_, err := c.wbufs.WriteTo(c.w)
	c.wbufs = nil
	clear(c.iov[:])
	return err
}

// writeChunk sends one bulk chunk: data (which may alias buffer storage —
// zero copy) at byte offset off of the transfer reqID.
func (c *framedConn) writeChunk(reqID, off uint64, data []byte) error {
	return c.writeChunkAfter(reqID, nil, off, data)
}

// writeChunkAfter sends a chunk; a non-nil req is the transfer's encoded
// request and leaves in a frame of its own ahead of the chunk, in the same
// gather write — a transfer that fits one chunk costs one write, and the
// write never ends inside a frame.
func (c *framedConn) writeChunkAfter(reqID uint64, req []byte, off uint64, data []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.brokenErr(); err != nil {
		return err
	}
	hdr := putFrameHeader(c.whdr[frameHeaderLen:], chunkOffsetLen+len(data), frameChunk, reqID)
	binary.LittleEndian.PutUint64(hdr[frameHeaderLen:], off)
	c.armWrite()
	var err error
	if req == nil {
		err = c.writev(hdr, data)
	} else {
		err = c.writev(putFrameHeader(c.whdr[:frameHeaderLen], len(req), frameRequest, reqID), req, hdr, data)
	}
	if err != nil {
		return c.fail(fmt.Errorf("transport: write chunk: %w", wrapNetErr(err)))
	}
	return nil
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

// sendRequest encodes req and sends it as a request frame.
func (c *framedConn) sendRequest(reqID uint64, req *Request) error {
	bp := getFrameBuf()
	*bp = appendRequest(*bp, req)
	err := c.writeFrame(frameRequest, reqID, *bp)
	putFrameBuf(bp)
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

// sendResponse encodes resp and sends it as a response frame.
func (c *framedConn) sendResponse(reqID uint64, resp *Response) error {
	bp := getFrameBuf()
	*bp = appendResponse(*bp, resp)
	err := c.writeFrame(frameResponse, reqID, *bp)
	putFrameBuf(bp)
	return err
}
