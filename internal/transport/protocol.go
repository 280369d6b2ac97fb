// Package transport provides GrOUT's distributed deployment: real TCP
// sockets between the Controller and Worker processes. It implements
// core.Fabric, so the same Controller code that drives the in-process
// simulation drives genuine remote workers — array payloads are actually
// serialized and shipped, kernels execute their numeric implementations on
// the worker, and peer-to-peer transfers open direct worker-to-worker
// connections, as in the paper's architecture (Figure 3).
//
// The wire is a length-prefixed binary protocol with explicit
// little-endian encoding and a per-worker channel split (DESIGN.md §5.2):
// a low-latency control channel for pings/launches/builds — a FIFO
// pipeline, so launches stream without a round trip each — and a bulk
// channel that streams array payloads in fixed-size chunks, multiple
// transfers interleaved by request ID. A multi-GiB transfer never
// head-of-line-blocks health probes or kernel launches.
//
// In this mode time is wall-clock: the sim.VirtualTime values returned by
// fabric operations are nanoseconds since the fabric connected. The
// calibrated oversubscription model remains available through each
// worker's embedded simulator, but the timing authority for distributed
// runs is reality.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
)

// MsgKind enumerates protocol requests.
type MsgKind int

const (
	// MsgPing checks liveness.
	MsgPing MsgKind = iota
	// MsgEnsureArray mirrors array metadata on the worker.
	MsgEnsureArray
	// MsgReceiveArray delivers array contents to the worker (bulk
	// channel: the payload follows as chunk frames).
	MsgReceiveArray
	// MsgFetchArray pulls array contents from the worker (flushing GPU
	// state first; bulk channel).
	MsgFetchArray
	// MsgLaunch executes a kernel CE.
	MsgLaunch
	// MsgBuildKernel compiles mini-CUDA source on the worker.
	MsgBuildKernel
	// MsgFreeArray drops an array replica.
	MsgFreeArray
	// MsgPushTo instructs the worker to send an array directly to a peer
	// worker (P2P).
	MsgPushTo
	// MsgStats returns the worker's execution statistics.
	MsgStats
	// MsgShutdown stops the worker server.
	MsgShutdown
)

var msgNames = [...]string{
	"ping", "ensure-array", "receive-array", "fetch-array", "launch",
	"build-kernel", "free-array", "push-to", "stats", "shutdown",
}

func (k MsgKind) String() string {
	if int(k) < len(msgNames) {
		return msgNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Request is one controller->worker (or worker->worker) message.
type Request struct {
	Kind      MsgKind
	Meta      grcuda.ArrayMeta
	ArrayID   dag.ArrayID
	Inv       core.Invocation
	Src       string // kernel source for MsgBuildKernel
	Signature string
	PeerAddr  string // target address for MsgPushTo
}

// ErrCode classifies a remote failure so well-known error kinds survive
// the wire as core sentinel errors rather than opaque strings.
type ErrCode uint8

const (
	// CodeOK: no error.
	CodeOK ErrCode = iota
	// CodeGeneric: a failure with no sentinel mapping.
	CodeGeneric
	// CodeArrayNotFound maps to core.ErrArrayNotFound.
	CodeArrayNotFound
	// CodeKernelCompile maps to core.ErrKernelCompile.
	CodeKernelCompile
	// CodeOOM maps to core.ErrOOM.
	CodeOOM
	// CodeTimeout maps to core.ErrTimeout (e.g. a worker's P2P push hit
	// its peer deadline); the controller may retry it.
	CodeTimeout
	// CodeTransient maps to core.ErrTransient (e.g. a worker's P2P dial
	// was refused mid-restart); the controller may retry it.
	CodeTransient
	// CodeQuotaExceeded maps to core.ErrQuotaExceeded: the gateway
	// refused a tenant allocation over its array-byte quota.
	CodeQuotaExceeded
	// CodeShedded maps to core.ErrShedded: the gateway refused a launch
	// because the shard's admission backlog crossed the tenant class's
	// shed threshold. Retryable overload, not a sticky stream error.
	CodeShedded
)

// codeFor classifies an error for the wire.
func codeFor(err error) ErrCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, core.ErrArrayNotFound):
		return CodeArrayNotFound
	case errors.Is(err, core.ErrKernelCompile):
		return CodeKernelCompile
	case errors.Is(err, core.ErrOOM), errors.Is(err, gpusim.ErrHostMemoryExhausted):
		return CodeOOM
	case errors.Is(err, core.ErrTimeout):
		return CodeTimeout
	case errors.Is(err, core.ErrTransient):
		return CodeTransient
	case errors.Is(err, core.ErrQuotaExceeded):
		return CodeQuotaExceeded
	case errors.Is(err, core.ErrShedded):
		return CodeShedded
	default:
		return CodeGeneric
	}
}

// sentinel maps a wire code back to the core sentinel, or nil.
func (c ErrCode) sentinel() error {
	switch c {
	case CodeArrayNotFound:
		return core.ErrArrayNotFound
	case CodeKernelCompile:
		return core.ErrKernelCompile
	case CodeOOM:
		return core.ErrOOM
	case CodeTimeout:
		return core.ErrTimeout
	case CodeTransient:
		return core.ErrTransient
	case CodeQuotaExceeded:
		return core.ErrQuotaExceeded
	case CodeShedded:
		return core.ErrShedded
	default:
		return nil
	}
}

// Response answers a Request.
type Response struct {
	Err     string
	Code    ErrCode // sentinel classification of Err
	Kernels int     // MsgStats: kernels executed
	Arrays  int     // MsgStats: arrays resident
	Elapsed int64   // MsgStats: worker-simulated busy nanoseconds
}

// setErr records err (with its wire code) on the response.
func (r *Response) setErr(err error) {
	if err == nil {
		return
	}
	r.Err = err.Error()
	r.Code = codeFor(err)
}

// ok reports whether the response carries no error; remote failures come
// back wrapped in their sentinel (errors.Is-able) when classified.
func (r *Response) ok() error {
	if r.Err == "" {
		return nil
	}
	if s := r.Code.sentinel(); s != nil {
		return fmt.Errorf("transport: remote error: %s (%w)", r.Err, s)
	}
	return fmt.Errorf("transport: remote error: %s", r.Err)
}

// --- framed control channel ------------------------------------------------

// ctrlWire is the control channel's payload codec.
var ctrlWire = wireCodec[Request, Response]{
	kind:   func(req *Request) string { return req.Kind.String() },
	encode: appendRequest,
	decode: parseResponseInto,
}

// ctrlConn is the framed control channel: the FIFO pipeline (pipeline.go)
// over the small, latency-sensitive messages (ping, launch, build, ensure,
// free, stats, shutdown). The worker serves a control channel strictly in
// order, which is what lets launches stream without a round trip each.
type ctrlConn struct {
	*pipeline[Request, Response]
}

func newCtrlConn(fc *framedConn, timeout time.Duration) *ctrlConn {
	return &ctrlConn{newPipeline(fc, &ctrlWire, timeout)}
}

// call performs one blocking control round trip; a remote failure comes
// back as the error.
func (c *ctrlConn) call(req *Request) (Response, error) {
	resp, err := c.pipeline.call(req)
	if err == nil {
		err = resp.ok()
	}
	return resp, err
}

// --- framed bulk channel ---------------------------------------------------

// bulkResult resolves one bulk operation.
type bulkResult struct {
	resp *Response
	err  error
}

// bulkPending is one in-flight bulk operation awaiting its response; dst,
// when non-nil, receives incoming chunk payloads directly (zero copy into
// the buffer's storage).
//
// Pendings are pooled. The invariant that makes recycling safe: every
// registered pending is sent exactly one result — by the demux loop
// (which removes it from the map before sending) or by failAll (which
// fires whenever the connection dies) — and the operation consumes that
// one result before release. The channel is therefore always empty when a
// pending returns to the pool.
type bulkPending struct {
	dst  *kernels.Buffer
	done chan bulkResult
	// timed marks an operation the peer owes a frame right now: a fetch
	// from the moment it is sent, an array send once its last chunk has
	// left. Guarded by the client's mu.
	timed bool
}

var bulkPendingPool = sync.Pool{
	New: func() any { return &bulkPending{done: make(chan bulkResult, 1)} },
}

// responsePool recycles the bulk read loop's decoded Responses — the last
// per-operation allocation on the bulk path. Ownership: the demux hands a
// pooled response to exactly one pending; the consumer returns it via
// putResponse after extracting the outcome (failAll sends resp == nil, so
// consumers guard for that).
var responsePool = sync.Pool{New: func() any { return &Response{} }}

func getResponse() *Response { return responsePool.Get().(*Response) }

func putResponse(r *Response) {
	if r == nil {
		return
	}
	*r = Response{}
	responsePool.Put(r)
}

// consume extracts a bulk result's outcome and recycles its response.
func (res bulkResult) consume() error {
	if res.err != nil {
		putResponse(res.resp)
		return res.err
	}
	err := res.resp.ok()
	putResponse(res.resp)
	return err
}

// bulkClient multiplexes concurrent bulk operations (array sends, fetches
// and P2P push commands) over one framed channel. Writers interleave
// chunk frames under the connection's write mutex; a reader goroutine
// demultiplexes responses and incoming chunks by request ID.
type bulkClient struct {
	fc    *framedConn
	chunk int
	// chunkTimeout, when > 0, is the *progress* deadline for incoming
	// frames: while at least one pending is timed (a fetch expecting
	// chunks, a sent array awaiting its acknowledgement), each read must
	// complete within the window. It is never armed otherwise — a pushTo
	// legitimately produces no frames for as long as the peer-to-peer
	// transfer runs, and must not be mistaken for a hang.
	chunkTimeout time.Duration

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*bulkPending
	// timed counts the timed pendings; the read deadline is armed exactly
	// while it is nonzero.
	timed int
	dead  error
}

func newBulkClient(fc *framedConn, chunk int) *bulkClient {
	b := &bulkClient{fc: fc, chunk: normalizeChunk(chunk), pending: make(map[uint64]*bulkPending)}
	go b.readLoop()
	return b
}

// rearm points the read deadline at the current timed population: armed
// while any operation is owed a frame, cleared otherwise. Called with
// b.mu held whenever timed changes, and by the read loop after every
// frame (each arrival restarts the progress window).
func (b *bulkClient) rearm() {
	if b.chunkTimeout <= 0 {
		return
	}
	if b.timed > 0 {
		b.fc.armRead(b.chunkTimeout)
	} else {
		b.fc.armRead(0)
	}
}

func (b *bulkClient) close() error { return b.fc.close() }

// broken reports the channel's fatal error, if any; the fabric's Healthy
// folds it in so a severed bulk channel triggers failover even while the
// control channel still answers pings. The connection-level error is
// consulted too: a write-side failure records it synchronously, before the
// read loop notices the teardown.
func (b *bulkClient) broken() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead != nil {
		return b.dead
	}
	return b.fc.brokenErr()
}

// register enlists a new operation and returns its request ID.
func (b *bulkClient) register(dst *kernels.Buffer) (uint64, *bulkPending, error) {
	p := bulkPendingPool.Get().(*bulkPending)
	p.dst = dst
	b.mu.Lock()
	if b.dead != nil {
		b.mu.Unlock()
		bulkPendingPool.Put(p)
		return 0, nil, b.dead
	}
	b.seq++
	b.pending[b.seq] = p
	id := b.seq
	if dst != nil {
		b.setTimed(p)
	}
	b.mu.Unlock()
	return id, p, nil
}

// setTimed starts the progress window for p. Called with b.mu held.
func (b *bulkClient) setTimed(p *bulkPending) {
	p.timed = true
	b.timed++
	b.rearm()
}

// awaitAck bounds the wait for the acknowledgement of an array whose last
// chunk has left: a peer that takes every byte and never answers costs one
// progress window instead of hanging this send and every operation queued
// behind it on the channel.
func (b *bulkClient) awaitAck(id uint64, p *bulkPending) {
	b.mu.Lock()
	if b.pending[id] == p { // not answered yet
		b.setTimed(p)
	}
	b.mu.Unlock()
}

// release recycles a pending whose one result has been consumed.
func (b *bulkClient) release(id uint64, p *bulkPending) {
	b.mu.Lock()
	if _, still := b.pending[id]; still {
		// Failed locally before the demux resolved it (send error): the
		// timed accounting the demux would have done happens here.
		delete(b.pending, id)
		if p.timed {
			b.timed--
			b.rearm()
		}
	}
	b.mu.Unlock()
	p.dst, p.timed = nil, false
	bulkPendingPool.Put(p)
}

// failAll marks the channel dead and resolves every in-flight operation
// with err.
func (b *bulkClient) failAll(err error) {
	err = b.fc.fail(err)
	b.mu.Lock()
	if b.dead == nil {
		b.dead = err
	}
	pend := b.pending
	b.pending = make(map[uint64]*bulkPending)
	b.timed = 0
	b.mu.Unlock()
	for _, p := range pend {
		p.done <- bulkResult{err: err}
	}
}

// readLoop demultiplexes incoming frames: responses resolve their pending
// operation; chunk frames land directly in the operation's destination
// buffer. Stream-level corruption kills the channel (the fabric's
// failover handles the rest); chunks for unknown IDs — an operation that
// already failed — are discarded.
func (b *bulkClient) readLoop() {
	for {
		h, err := b.fc.readHeader()
		if err != nil {
			b.failAll(fmt.Errorf("transport: bulk channel: %w", wrapNetErr(err)))
			return
		}
		switch h.ftype {
		case frameResponse:
			bp, err := b.fc.readPayload(h.n)
			if err != nil {
				b.failAll(fmt.Errorf("transport: bulk channel: %w", wrapNetErr(err)))
				return
			}
			resp := getResponse()
			perr := parseResponseInto(*bp, resp)
			putFrameBuf(bp)
			if perr != nil {
				putResponse(resp)
				b.failAll(fmt.Errorf("transport: bulk channel: %w", perr))
				return
			}
			b.mu.Lock()
			p := b.pending[h.reqID]
			delete(b.pending, h.reqID)
			if p != nil && p.timed {
				b.timed--
			}
			b.rearm()
			b.mu.Unlock()
			if p != nil {
				p.done <- bulkResult{resp: resp}
			} else {
				// The operation already failed locally; nobody will consume.
				putResponse(resp)
			}
		case frameChunk:
			if err := b.readChunk(h); err != nil {
				b.failAll(fmt.Errorf("transport: bulk channel: %w", wrapNetErr(err)))
				return
			}
			b.mu.Lock()
			b.rearm()
			b.mu.Unlock()
		default:
			b.failAll(fmt.Errorf("transport: bulk channel: unexpected frame type %d", h.ftype))
			return
		}
	}
}

// readChunk lands one incoming chunk in its transfer's destination.
func (b *bulkClient) readChunk(h frameHeader) error {
	if h.n < chunkOffsetLen {
		return fmt.Errorf("chunk frame of %d bytes", h.n)
	}
	off, err := b.fc.readChunkOffset()
	if err != nil {
		return err
	}
	n := h.n - chunkOffsetLen
	b.mu.Lock()
	p := b.pending[h.reqID]
	b.mu.Unlock()
	if p == nil || p.dst == nil {
		return b.fc.discardPayload(n)
	}
	dst, err := p.dst.RawSpan(off, n)
	if err != nil {
		// The worker sent an out-of-range chunk: protocol violation.
		return err
	}
	return b.fc.readInto(dst)
}

// receiveArray streams raw, an array's wire bytes, to the remote array id
// in chunks; the request leaves in the same write as the first chunk.
// Multiple receiveArray/fetchArray calls interleave on the channel. A nil
// snap means nothing writes raw during the call and chunks go out straight
// from it; otherwise raw is live storage written under snap (a worker's
// array), and each chunk is copied out under it and sent without it
// (snapshot).
//
// Once register succeeds the pending is owed exactly one result: a send
// failure here kills the connection, which fires failAll. Every path
// consumes that result before releasing the pending; a local write error
// takes precedence over the (less specific) teardown error.
func (b *bulkClient) receiveArray(id dag.ArrayID, meta grcuda.ArrayMeta, raw []byte, snap sync.Locker) error {
	reqID, p, err := b.register(nil)
	if err != nil {
		return err
	}
	rp := getFrameBuf()
	defer putFrameBuf(rp)
	*rp = appendRequest(*rp, &Request{Kind: MsgReceiveArray, ArrayID: id, Meta: meta})
	req := *rp // nil once sent
	var werr error
	var scratch []byte
	if len(raw) == 0 {
		werr = b.fc.writeFrame(frameRequest, reqID, req)
	} else if snap != nil {
		sp := getChunkBuf(min(b.chunk, len(raw)))
		defer putChunkBuf(sp)
		scratch = *sp
	}
stream:
	for off := 0; off < len(raw) && werr == nil; off += b.chunk {
		select {
		case res := <-p.done:
			// An early error response (unknown array, size mismatch)
			// aborts the stream instead of shipping the remaining chunks;
			// it goes back for the wait below to consume.
			p.done <- res
			break stream
		default:
		}
		data := raw[off:min(off+b.chunk, len(raw))]
		if snap != nil {
			data = snapshot(snap, scratch, data)
		}
		werr = b.fc.writeChunkAfter(reqID, req, uint64(off), data)
		req = nil
	}
	if werr == nil {
		b.awaitAck(reqID, p)
	}
	res := <-p.done
	b.release(reqID, p)
	if werr != nil {
		putResponse(res.resp)
		return fmt.Errorf("transport: stream %v: %w", MsgReceiveArray, werr)
	}
	return res.consume()
}

// snapshot copies src, a span of live array storage, into dst under mu,
// the lock the array's writers hold. The caller sends the copy without the
// lock: a slow peer never stalls whoever else needs it.
func snapshot(mu sync.Locker, dst, src []byte) []byte {
	mu.Lock()
	n := copy(dst, src)
	mu.Unlock()
	return dst[:n]
}

// fetchArray pulls the remote array id into dst; incoming chunks are
// written straight into dst's storage by the read loop.
func (b *bulkClient) fetchArray(id dag.ArrayID, dst *kernels.Buffer) error {
	return b.roundTrip(dst, &Request{Kind: MsgFetchArray, ArrayID: id})
}

// pushTo commands the worker to ship array id directly to the peer at
// addr (P2P). The round trip resolves when the peer acknowledged the
// data; concurrent pushes to different peers proceed in parallel.
func (b *bulkClient) pushTo(id dag.ArrayID, addr string) error {
	return b.roundTrip(nil, &Request{Kind: MsgPushTo, ArrayID: id, PeerAddr: addr})
}

// roundTrip performs one chunkless bulk operation (the payload, if any,
// streams toward the caller). The pending's one guaranteed result is
// always consumed before release — see receiveArray.
func (b *bulkClient) roundTrip(dst *kernels.Buffer, req *Request) error {
	reqID, p, err := b.register(dst)
	if err != nil {
		return err
	}
	var werr error
	if err := b.fc.sendRequest(reqID, req); err != nil {
		werr = fmt.Errorf("transport: send %v: %w", req.Kind, err)
	}
	res := <-p.done
	b.release(reqID, p)
	if werr != nil {
		putResponse(res.resp)
		return werr
	}
	return res.consume()
}
