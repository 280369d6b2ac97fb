package transport

// session.go is the tenant-facing wire: the frames a client program
// exchanges with the multi-tenant gateway (internal/server). It rides the
// same framed transport as the controller↔worker protocol — 6-byte hello
// (channel helloSession), length-prefixed frames, little-endian payloads
// encoded with wire.go's append helpers and decoded with the sticky-error
// wireReader — but carries session-scoped operations: every array ID in a
// SessionRequest is local to the tenant's namespace, and the gateway maps
// it onto the global DAG. Decoders are bounds-checked against adversarial
// input like the controller wire's (see FuzzSessionRequest /
// FuzzSessionResponse).

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// SessKind enumerates tenant-session requests.
type SessKind uint8

const (
	// SessOpen introduces the session: Name labels the tenant in metrics.
	SessOpen SessKind = iota
	// SessPing checks gateway liveness.
	SessPing
	// SessNewArray allocates a session-scoped array (Elem, Len); the
	// response carries the assigned session-local ID.
	SessNewArray
	// SessLaunch submits a kernel CE (Inv with session-local array IDs).
	// The gateway acknowledges admission; dispatch errors surface on the
	// next synchronizing operation. A client may stream launches without
	// waiting for the acks, up to the window the open reply announced.
	SessLaunch
	// SessHostRead synchronizes an array and returns its contents.
	SessHostRead
	// SessHostWrite replaces an array's contents with Data.
	SessHostWrite
	// SessFree releases a session-scoped array.
	SessFree
	// SessBuildKernel compiles mini-CUDA source cluster-wide; the
	// response names the registered kernel.
	SessBuildKernel
	// SessElapsed returns the session's observed makespan (virtual ns).
	SessElapsed
	// SessClose ends the session cleanly (arrays freed server-side).
	SessClose
	// SessShardInfo asks which controller shard serves this tenant; the
	// response carries the shard index and the plane's shard count
	// (DESIGN.md §5.8). Single-controller gateways answer shard 0 of 1.
	SessShardInfo
	// SessBackpressure polls the gateway's flow-control advisory for this
	// tenant: the response's BP frame carries the launch-queue fill and a
	// suggested pause. The gateway also piggybacks the same frame on
	// SessLaunch acks when the tenant out-runs its token bucket, so a
	// steadily launching client rarely needs to poll (DESIGN.md §5.9).
	SessBackpressure
)

var sessNames = [...]string{
	"open", "ping", "new-array", "launch", "host-read", "host-write",
	"free", "build-kernel", "elapsed", "close", "shard-info",
	"backpressure",
}

func (k SessKind) String() string {
	if int(k) < len(sessNames) {
		return sessNames[k]
	}
	return fmt.Sprintf("SessKind(%d)", int(k))
}

// SessionRequest is one client→gateway message. Array IDs are
// session-scoped: the gateway translates them, so a tenant can never name
// another tenant's data.
type SessionRequest struct {
	Kind SessKind
	// Name labels the tenant (SessOpen); shows up in /metrics.
	Name string
	// Elem and Len describe a SessNewArray allocation.
	Elem memmodel.ElemKind
	Len  int64
	// Array is the session-local target of read/write/free.
	Array dag.ArrayID
	// Inv is a SessLaunch invocation (session-local array refs).
	Inv core.Invocation
	// Src and Signature carry SessBuildKernel source.
	Src, Signature string
	// Data is the SessHostWrite payload.
	Data *kernels.Buffer
}

// SessionResponse answers a SessionRequest.
type SessionResponse struct {
	Code ErrCode
	Err  string
	// Array is the ID assigned by SessNewArray.
	Array dag.ArrayID
	// Elapsed is SessElapsed's virtual nanoseconds.
	Elapsed int64
	// Name is the kernel registered by SessBuildKernel.
	Name string
	// Shard and ShardCount answer SessShardInfo: the controller shard
	// serving this tenant and the plane's shard count.
	Shard, ShardCount int
	// BP is the gateway's flow-control advisory: always present on a
	// SessBackpressure answer and (as the launch window) on the SessOpen
	// answer, piggybacked on SessLaunch acks when the tenant out-runs its
	// token bucket, nil otherwise.
	BP *Backpressure
	// Data is the SessHostRead payload.
	Data *kernels.Buffer
}

// Backpressure is the gateway's per-tenant flow-control advisory
// (DESIGN.md §5.9). The pause is advisory, not a protocol obligation: a
// client that ignores it still makes progress, but leaves the gateway's
// queue bound and token bucket to do all the throttling.
type Backpressure struct {
	// Queued and QueueCap report the tenant's launch-queue fill at the
	// moment the advisory was built. On the SessOpen reply QueueCap is
	// the client's launch window: how many launches it may have
	// unacknowledged (DESIGN.md §5.5).
	Queued, QueueCap int
	// Pause is the suggested client-side pause before the next launch:
	// the gateway's estimate of how long the tenant's token deficit
	// takes to clear.
	Pause time.Duration
}

// appendBackpressure encodes bp after dst:
//
//	i64 queued   i64 queueCap   i64 pause(ns)
func appendBackpressure(dst []byte, bp *Backpressure) []byte {
	dst = appendI64(dst, int64(bp.Queued))
	dst = appendI64(dst, int64(bp.QueueCap))
	return appendI64(dst, int64(bp.Pause))
}

// parseBackpressureInto decodes into a caller-owned advisory, resetting
// it first. The payload must be exactly one advisory.
func parseBackpressureInto(p []byte, bp *Backpressure) error {
	r := wireReader{p: p}
	*bp = Backpressure{}
	bp.Queued = int(r.i64())
	bp.QueueCap = int(r.i64())
	bp.Pause = time.Duration(r.i64())
	if !r.done() {
		return errMalformed
	}
	return nil
}

// SetErr records err (with its wire code) on the response.
func (r *SessionResponse) SetErr(err error) {
	if err == nil {
		return
	}
	r.Err = err.Error()
	r.Code = codeFor(err)
}

// Ok reports the response's error, if any, rewrapped around its core
// sentinel so errors.Is works across the socket.
func (r *SessionResponse) Ok() error {
	if r.Err == "" {
		return nil
	}
	if s := r.Code.sentinel(); s != nil {
		return fmt.Errorf("grout: remote error: %s (%w)", r.Err, s)
	}
	return fmt.Errorf("grout: remote error: %s", r.Err)
}

// appendSessionRequest encodes req after dst. Layout (little-endian):
//
//	u8  kind
//	str name
//	u8  elem   i64 len   i64 arrayID
//	str inv.kernel  i64 grid  i64 block  u32 nargs
//	  per arg: u8 isArray  i64 array  f64 scalar
//	str src    str signature
//	buffer data
func appendSessionRequest(dst []byte, req *SessionRequest) []byte {
	dst = appendU8(dst, uint8(req.Kind))
	dst = appendString(dst, req.Name)
	dst = appendU8(dst, uint8(req.Elem))
	dst = appendI64(dst, req.Len)
	dst = appendI64(dst, int64(req.Array))
	dst = appendString(dst, req.Inv.Kernel)
	dst = appendI64(dst, int64(req.Inv.Grid))
	dst = appendI64(dst, int64(req.Inv.Block))
	dst = appendU32(dst, uint32(len(req.Inv.Args)))
	for _, a := range req.Inv.Args {
		var isArr uint8
		if a.IsArray {
			isArr = 1
		}
		dst = appendU8(dst, isArr)
		dst = appendI64(dst, int64(a.Array))
		dst = appendF64(dst, a.Scalar)
	}
	dst = appendString(dst, req.Src)
	dst = appendString(dst, req.Signature)
	return appendBuffer(dst, req.Data)
}

// parseSessionRequestInto decodes into a caller-owned request, resetting
// it first; decoded slices and buffers never alias the payload.
func parseSessionRequestInto(p []byte, req *SessionRequest) error {
	r := wireReader{p: p}
	*req = SessionRequest{}
	req.Kind = SessKind(r.u8())
	req.Name = r.str()
	req.Elem = memmodel.ElemKind(r.u8())
	req.Len = r.i64()
	req.Array = dag.ArrayID(r.i64())
	req.Inv.Kernel = r.str()
	req.Inv.Grid = int(r.i64())
	req.Inv.Block = int(r.i64())
	nargs := r.u32()
	if r.bad || nargs > wireMaxArgs {
		return errMalformed
	}
	if nargs > 0 {
		req.Inv.Args = make([]core.ArgRef, nargs)
		for i := range req.Inv.Args {
			req.Inv.Args[i] = core.ArgRef{
				IsArray: r.u8() != 0,
				Array:   dag.ArrayID(r.i64()),
				Scalar:  r.f64(),
			}
		}
	}
	req.Src = r.str()
	req.Signature = r.str()
	req.Data = r.buffer()
	if !r.done() {
		return errMalformed
	}
	return nil
}

// appendSessionResponse encodes resp after dst:
//
//	u8 code   str err
//	i64 arrayID   i64 elapsed   str name
//	i64 shard   i64 shardCount
//	u8 hasBP  [i64 queued  i64 queueCap  i64 pause]
//	buffer data
func appendSessionResponse(dst []byte, resp *SessionResponse) []byte {
	dst = appendU8(dst, uint8(resp.Code))
	dst = appendString(dst, resp.Err)
	dst = appendI64(dst, int64(resp.Array))
	dst = appendI64(dst, resp.Elapsed)
	dst = appendString(dst, resp.Name)
	dst = appendI64(dst, int64(resp.Shard))
	dst = appendI64(dst, int64(resp.ShardCount))
	if resp.BP != nil {
		dst = appendU8(dst, 1)
		dst = appendBackpressure(dst, resp.BP)
	} else {
		dst = appendU8(dst, 0)
	}
	return appendBuffer(dst, resp.Data)
}

// parseSessionResponseInto decodes into a caller-owned response,
// resetting it first.
func parseSessionResponseInto(p []byte, resp *SessionResponse) error {
	r := wireReader{p: p}
	*resp = SessionResponse{}
	resp.Code = ErrCode(r.u8())
	resp.Err = r.str()
	resp.Array = dag.ArrayID(r.i64())
	resp.Elapsed = r.i64()
	resp.Name = r.str()
	resp.Shard = int(r.i64())
	resp.ShardCount = int(r.i64())
	switch r.u8() {
	case 0:
	case 1:
		resp.BP = &Backpressure{
			Queued:   int(r.i64()),
			QueueCap: int(r.i64()),
			Pause:    time.Duration(r.i64()),
		}
	default:
		return errMalformed
	}
	if r.bad {
		// The presence flag (or the advisory behind it) was truncated;
		// drop the partially built BP so a bad frame parses to nothing.
		resp.BP = nil
		return errMalformed
	}
	resp.Data = r.buffer()
	if !r.done() {
		return errMalformed
	}
	return nil
}

// --- session channel ---------------------------------------------------------

// sessionWire is the session channel's payload codec.
var sessionWire = wireCodec[SessionRequest, SessionResponse]{
	noun:   "session ",
	kind:   func(req *SessionRequest) string { return req.Kind.String() },
	encode: appendSessionRequest,
	decode: parseSessionResponseInto,
}

// SessionConn is one tenant channel. The client side is the same FIFO
// pipeline as the worker control channel (pipeline.go): Start queues a
// request without waiting for the answers ahead of it, Flush puts queued
// frames on the wire, Call is Start + Flush + wait. The gateway side reads
// requests and answers them in order (ReadRequest, then Reply or
// BufferReply + Flush). Every write of either side goes through the
// connection's write buffer, so a burst of small frames costs one write.
type SessionConn struct {
	fc *framedConn
	// pipe is the client side's request pipeline; nil on the gateway side.
	pipe *pipeline[SessionRequest, SessionResponse]
}

// DialSession opens a session channel to a gateway. dialTimeout bounds
// the TCP connect + hello (0 = 5s default, negative disables);
// callTimeout bounds the wait for the next response while any request is
// outstanding (0 disables — session operations like HostRead legitimately
// wait on global synchronization); an idle channel never times out.
func DialSession(addr string, dialTimeout, callTimeout time.Duration) (*SessionConn, error) {
	fc, err := dialFramed(addr, helloSession, pickTimeout(dialTimeout, DefaultDialTimeout))
	if err != nil {
		return nil, err
	}
	if callTimeout < 0 {
		callTimeout = 0
	}
	return &SessionConn{fc: fc, pipe: newPipeline(fc, &sessionWire, callTimeout)}, nil
}

// AcceptSession validates the hello on an accepted gateway connection and
// wraps it. hsTimeout bounds the hello read (0 disables).
func AcceptSession(raw net.Conn, hsTimeout time.Duration) (*SessionConn, error) {
	if hsTimeout > 0 {
		_ = raw.SetReadDeadline(time.Now().Add(hsTimeout))
	}
	var hello [helloLen]byte
	if _, err := io.ReadFull(raw, hello[:]); err != nil {
		return nil, fmt.Errorf("transport: session hello: %w", wrapNetErr(err))
	}
	if string(hello[:4]) != helloMagic || hello[4] != helloSession {
		return nil, fmt.Errorf("transport: not a session hello")
	}
	if hsTimeout > 0 {
		_ = raw.SetReadDeadline(time.Time{})
	}
	return &SessionConn{fc: newFramedConn(raw, nil)}, nil
}

// Close tears the channel down; safe to call twice. On the client side it
// returns once the reader goroutine has exited — every outstanding done
// has run by then — so it must not be called from a done callback.
func (c *SessionConn) Close() error {
	err := c.fc.close()
	if c.pipe != nil {
		<-c.pipe.exited
	}
	return err
}

// RemoteAddr names the peer (gateway logs).
func (c *SessionConn) RemoteAddr() net.Addr { return c.fc.raw.RemoteAddr() }

// Start queues one client request without waiting for its answer: done
// runs exactly once, on the connection's reader goroutine, with the
// response (valid only during the call) or the channel's failure, and must
// not block on anything but a short lock. Responses arrive in request
// order. req is encoded before Start returns, so the caller may reuse it;
// the frame leaves on the next Flush or Call. A non-nil return means the
// request was not queued and done will not run.
func (c *SessionConn) Start(req *SessionRequest, done func(*SessionResponse, error)) error {
	return c.pipe.start(req, nil, done)
}

// Flush puts every buffered frame — client requests or gateway replies —
// on the wire.
func (c *SessionConn) Flush() error { return c.fc.flushFrames() }

// Call performs one client round trip; every request started earlier has
// been answered when it returns. Remote errors come back via
// SessionResponse.Ok (sentinel-wrapped); transport errors kill the
// connection.
func (c *SessionConn) Call(req *SessionRequest) (*SessionResponse, error) {
	resp, err := c.pipe.call(req, nil)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReadRequest reads the next client request into req (gateway serve
// loop), returning its frame ID for the Reply.
func (c *SessionConn) ReadRequest(req *SessionRequest) (uint64, error) {
	h, err := c.fc.readHeader()
	if err != nil {
		return 0, err
	}
	if h.ftype != frameRequest {
		return 0, fmt.Errorf("transport: session channel: unexpected frame type %d", h.ftype)
	}
	bp, err := c.fc.readPayload(h.n)
	if err != nil {
		return 0, err
	}
	perr := parseSessionRequestInto(*bp, req)
	putFrameBuf(bp)
	if perr != nil {
		return 0, perr
	}
	return h.reqID, nil
}

// RequestWaiting reports whether bytes of a further request are already
// in the read buffer: the gateway holds its buffered replies back while
// one is, and flushes when none is. A client never ends a write inside a
// frame (bufferFrame), so the rest of a request only partly buffered here
// is already on its way and reading it waits on nothing the held-back
// replies would release.
func (c *SessionConn) RequestWaiting() bool { return c.fc.r.Buffered() > 0 }

// BufferReply answers one request into the write buffer; it reaches the
// wire on the next Flush or Reply (or earlier if the buffer fills).
func (c *SessionConn) BufferReply(reqID uint64, resp *SessionResponse) error {
	bp := getFrameBuf()
	*bp = appendSessionResponse(*bp, resp)
	err := c.fc.bufferFrame(frameResponse, reqID, *bp)
	putFrameBuf(bp)
	return err
}

// Reply answers one request; it is on the wire when Reply returns.
func (c *SessionConn) Reply(reqID uint64, resp *SessionResponse) error {
	if err := c.BufferReply(reqID, resp); err != nil {
		return err
	}
	return c.Flush()
}

// sessionRequestEq reports deep equality (fuzz round trips; floats
// compare bit-exactly).
func sessionRequestEq(a, b *SessionRequest) bool {
	if a.Kind != b.Kind || a.Name != b.Name || a.Elem != b.Elem || a.Len != b.Len ||
		a.Array != b.Array || a.Src != b.Src || a.Signature != b.Signature ||
		a.Inv.Kernel != b.Inv.Kernel || a.Inv.Grid != b.Inv.Grid || a.Inv.Block != b.Inv.Block ||
		len(a.Inv.Args) != len(b.Inv.Args) {
		return false
	}
	for i := range a.Inv.Args {
		x, y := a.Inv.Args[i], b.Inv.Args[i]
		if x.IsArray != y.IsArray || x.Array != y.Array ||
			math.Float64bits(x.Scalar) != math.Float64bits(y.Scalar) {
			return false
		}
	}
	return bufferEq(a.Data, b.Data)
}

func sessionResponseEq(a, b *SessionResponse) bool {
	return a.Code == b.Code && a.Err == b.Err && a.Array == b.Array &&
		a.Elapsed == b.Elapsed && a.Name == b.Name &&
		a.Shard == b.Shard && a.ShardCount == b.ShardCount &&
		backpressureEq(a.BP, b.BP) &&
		bufferEq(a.Data, b.Data)
}

func backpressureEq(a, b *Backpressure) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}
