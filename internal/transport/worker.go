package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
)

// WorkerServer hosts a GrCUDA runtime behind a TCP listener: the Worker
// half of the paper's Figure 3. It executes kernels numerically and keeps
// its embedded UVM simulator's accounting for statistics.
//
// Every connection opens with the protocol hello naming its channel
// (control or bulk); anything else is closed.
type WorkerServer struct {
	mu        sync.Mutex
	rt        *grcuda.Runtime
	listener  net.Listener
	log       *log.Logger
	closed    bool
	active    map[io.Closer]struct{}
	pushChunk int
	// peers holds this worker's persistent bulk link to each peer it has
	// pushed to, by address: at most one entry per worker of the fleet.
	peers map[string]*peerLink
	// P2P push deadlines (resolved from ServerOptions).
	dialTimeout  time.Duration
	chunkTimeout time.Duration
}

// peerLink is the pushing side of one worker→worker bulk channel. The
// link is dialed by the first push to the peer and shared by every later
// and every concurrent one (the bulk protocol interleaves transfers by
// request ID); it lives until it breaks — the next push redials — or the
// server closes. mu serializes dials to this one peer and is never held
// together with the server's lock or across a transfer.
type peerLink struct {
	mu sync.Mutex
	bc *bulkClient
}

// ServerOptions tune a WorkerServer beyond the node spec.
type ServerOptions struct {
	// ChunkBytes is the chunk size for outgoing bulk streams (P2P pushes
	// and fetch responses). 0 means DefaultChunkBytes.
	ChunkBytes int
	// DialTimeout bounds a worker→worker dial: the first P2P push to a
	// peer and every redial of a broken peer link (zero means
	// DefaultDialTimeout, negative disables).
	DialTimeout time.Duration
	// ChunkTimeout bounds each outgoing P2P chunk write and the wait for
	// the peer's acknowledgement after the last one (zero means
	// DefaultChunkTimeout, negative disables).
	ChunkTimeout time.Duration
	// Prefetch and Evict select the node's UVM memory policies by name
	// (gpusim.PrefetchPolicyNames / EvictionPolicyNames). Empty keeps the
	// defaults; unknown names fail server construction rather than
	// silently falling back to the baseline.
	Prefetch string
	Evict    string
}

// NewWorkerServer creates a worker over the given simulated node spec,
// listening on addr ("host:0" picks a free port). logger may be nil.
func NewWorkerServer(addr string, spec gpusim.NodeSpec, logger *log.Logger) (*WorkerServer, error) {
	return NewWorkerServerOpts(addr, spec, logger, ServerOptions{})
}

// NewWorkerServerOpts is NewWorkerServer with explicit options.
func NewWorkerServerOpts(addr string, spec gpusim.NodeSpec, logger *log.Logger, opts ServerOptions) (*WorkerServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	node := gpusim.NewNode(spec)
	if opts.Prefetch != "" || opts.Evict != "" {
		if err := node.UseMemoryPolicies(opts.Prefetch, opts.Evict); err != nil {
			_ = ln.Close()
			return nil, err
		}
	}
	w := &WorkerServer{
		rt:           grcuda.NewRuntime(node, kernels.StdRegistry(), grcuda.Options{ExecuteNumeric: true}),
		listener:     ln,
		log:          logger,
		active:       make(map[io.Closer]struct{}),
		peers:        make(map[string]*peerLink),
		pushChunk:    normalizeChunk(opts.ChunkBytes),
		dialTimeout:  pickTimeout(opts.DialTimeout, DefaultDialTimeout),
		chunkTimeout: pickTimeout(opts.ChunkTimeout, DefaultChunkTimeout),
	}
	go w.acceptLoop()
	return w, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Addr returns the worker's listening address.
func (w *WorkerServer) Addr() string { return w.listener.Addr().String() }

// Runtime exposes the embedded runtime (tests).
func (w *WorkerServer) Runtime() *grcuda.Runtime { return w.rt }

// LiveCEs reports how many CEs the worker's Local DAG currently holds
// (dag.Graph.Live): bounded under an endless launch stream.
func (w *WorkerServer) LiveCEs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rt.Graph().Live()
}

// Close stops the server and drops every established connection, the
// peer links this worker dialed included.
func (w *WorkerServer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	conns := make([]io.Closer, 0, len(w.active))
	for c := range w.active {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	// A shutdown request has already closed the listener.
	if err := w.listener.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// track registers a live connection for teardown on Close; it reports
// false when the server is already closed.
func (w *WorkerServer) track(c io.Closer) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.active[c] = struct{}{}
	return true
}

func (w *WorkerServer) untrack(c io.Closer) {
	w.mu.Lock()
	delete(w.active, c)
	w.mu.Unlock()
}

func (w *WorkerServer) acceptLoop() {
	for {
		raw, err := w.listener.Accept()
		if err != nil {
			// A shutdown request closes the listener before Close runs.
			if !errors.Is(err, net.ErrClosed) {
				w.log.Printf("worker accept: %v", err)
			}
			return
		}
		go w.serveConn(raw)
	}
}

// serveConn reads the connection hello and serves the channel it names.
func (w *WorkerServer) serveConn(raw net.Conn) {
	br := bufio.NewReaderSize(raw, 64<<10)
	var hello [helloLen]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		_ = raw.Close()
		return
	}
	if string(hello[:len(helloMagic)]) != helloMagic {
		w.log.Printf("worker: connection from %s does not speak the protocol", raw.RemoteAddr())
		_ = raw.Close()
		return
	}
	fc := newFramedConn(raw, br)
	switch hello[4] {
	case helloControl:
		w.serveControl(fc)
	case helloBulk:
		w.serveBulk(fc)
	default:
		w.log.Printf("worker: unknown channel %d in hello", hello[4])
		_ = fc.close()
	}
}

// --- framed control serving ------------------------------------------------

// serveControl handles one framed control channel: requests are executed
// and answered strictly in arrival order — the ordering guarantee the
// controller's streamed launches rest on (a launch queued behind another
// on this channel runs after it, the Local-DAG rule carried by the wire).
// Responses collect in the write buffer and go out when no further request
// is already waiting in the read buffer: one write per burst under load,
// one per request at depth 1. Bulk kinds are rejected here — array
// payloads belong on the bulk channel.
func (w *WorkerServer) serveControl(fc *framedConn) {
	if !w.track(fc) {
		_ = fc.close()
		return
	}
	defer func() {
		w.untrack(fc)
		_ = fc.flushFrames() // answers to requests served before the stream broke
		_ = fc.close()
	}()
	// req is this connection's decode scratch: one Request reused across
	// messages instead of an allocation per frame (parseRequestInto resets
	// it; handling is synchronous, so nothing outlives the iteration).
	var req Request
	for {
		h, err := fc.readHeader()
		if err != nil {
			return // connection closed (or corrupt stream)
		}
		if h.ftype != frameRequest {
			w.log.Printf("worker control: unexpected frame type %d", h.ftype)
			return
		}
		bp, err := fc.readPayload(h.n)
		if err != nil {
			return
		}
		perr := parseRequestInto(*bp, &req)
		putFrameBuf(bp)
		if perr != nil {
			w.log.Printf("worker control: %v", perr)
			return
		}
		var resp *Response
		switch req.Kind {
		case MsgReceiveArray, MsgFetchArray, MsgPushTo:
			resp = &Response{}
			resp.setErr(fmt.Errorf("bulk operation %v on control channel", req.Kind))
		default:
			resp = w.handle(&req)
		}
		if req.Kind == MsgShutdown {
			// Stop accepting before the answer leaves: a dial the client
			// makes after its shutdown call returned must not get in.
			_ = w.listener.Close()
		}
		err = fc.bufferResponse(h.reqID, resp)
		if err == nil && (fc.r.Buffered() == 0 || req.Kind == MsgShutdown) {
			err = fc.flushFrames()
		}
		if err != nil {
			w.log.Printf("worker reply: %v", err)
			return
		}
		if req.Kind == MsgShutdown {
			_ = w.Close()
			return
		}
	}
}

// --- framed bulk serving ---------------------------------------------------

// inflightRecv tracks one chunked array receive on a bulk channel.
type inflightRecv struct {
	buf   *kernels.Buffer
	got   int
	total int
}

// serveBulk handles one framed bulk channel: receive streams land chunk
// by chunk directly in array storage; fetches and P2P pushes run in their
// own goroutines so a slow peer never stalls the channel's reader, and
// concurrent operations interleave by request ID.
func (w *WorkerServer) serveBulk(fc *framedConn) {
	if !w.track(fc) {
		_ = fc.close()
		return
	}
	defer func() {
		w.untrack(fc)
		_ = fc.close()
	}()
	// recv is owned by this goroutine; no lock needed.
	recv := make(map[uint64]*inflightRecv)
	// req is this connection's decode scratch (see serveControl); paths
	// that outlive the loop iteration (fetch/push goroutines) copy it.
	var req Request
	for {
		h, err := fc.readHeader()
		if err != nil {
			return
		}
		switch h.ftype {
		case frameRequest:
			bp, err := fc.readPayload(h.n)
			if err != nil {
				return
			}
			perr := parseRequestInto(*bp, &req)
			putFrameBuf(bp)
			if perr != nil {
				w.log.Printf("worker bulk: %v", perr)
				return
			}
			if !w.bulkRequest(fc, h.reqID, &req, recv) {
				return
			}
		case frameChunk:
			if err := w.bulkChunk(fc, h, recv); err != nil {
				w.log.Printf("worker bulk: %v", err)
				return
			}
		default:
			w.log.Printf("worker bulk: unexpected frame type %d", h.ftype)
			return
		}
	}
}

// bulkRequest opens one bulk operation; it reports false when the channel
// must close.
func (w *WorkerServer) bulkRequest(fc *framedConn, reqID uint64, req *Request,
	recv map[uint64]*inflightRecv) bool {
	switch req.Kind {
	case MsgReceiveArray:
		st, err := w.beginReceive(req)
		if err != nil {
			resp := &Response{}
			resp.setErr(err)
			return fc.sendResponse(reqID, resp) == nil
		}
		if st.total == 0 {
			// Zero-length array: nothing will stream.
			return fc.sendResponse(reqID, &Response{}) == nil
		}
		recv[reqID] = st
		return true
	case MsgFetchArray:
		// req is the serve loop's scratch and will be overwritten by the
		// next frame; the goroutine gets its own shallow copy (safe: every
		// parse allocates fresh slice fields, never aliases prior ones).
		r := *req
		go w.serveFetch(fc, reqID, &r)
		return true
	case MsgPushTo:
		r := *req
		go w.servePush(fc, reqID, &r)
		return true
	case MsgPing:
		// Harmless on bulk (used by channel health probes).
		return fc.sendResponse(reqID, &Response{}) == nil
	default:
		resp := &Response{}
		resp.setErr(fmt.Errorf("request %v not valid on bulk channel", req.Kind))
		return fc.sendResponse(reqID, resp) == nil
	}
}

// beginReceive validates an incoming array stream and invalidates stale
// device pages; chunks will land directly in the array's host buffer.
func (w *WorkerServer) beginReceive(req *Request) (*inflightRecv, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	arr := w.rt.Array(req.ArrayID)
	if arr == nil {
		return nil, fmt.Errorf("receive of unknown array %d: %w", req.ArrayID, core.ErrArrayNotFound)
	}
	if err := w.rt.Node().Invalidate(arr.Alloc); err != nil {
		return nil, err
	}
	// The sender names how many bytes it will stream; a mismatch against
	// the local replica is a protocol-level bug, not data to truncate.
	var sent int
	if req.Meta.Len > 0 {
		sent = int(grcuda.ArrayMeta{Kind: req.Meta.Kind, Len: req.Meta.Len}.Bytes())
		if local := int(arr.Bytes()); sent != local {
			return nil, fmt.Errorf("receive of array %d: %d sent bytes vs %d local", req.ArrayID, sent, local)
		}
	}
	return &inflightRecv{buf: arr.Buf, total: sent}, nil
}

// bulkChunk applies one incoming chunk; unknown request IDs (an aborted
// or rejected transfer) are discarded.
func (w *WorkerServer) bulkChunk(fc *framedConn, h frameHeader, recv map[uint64]*inflightRecv) error {
	if h.n < chunkOffsetLen {
		return fmt.Errorf("chunk frame of %d bytes", h.n)
	}
	off, err := fc.readChunkOffset()
	if err != nil {
		return err
	}
	n := h.n - chunkOffsetLen
	st, ok := recv[h.reqID]
	if !ok || st.buf == nil {
		return fc.discardPayload(n)
	}
	if _, err := st.buf.RawSpan(off, n); err != nil {
		return err // protocol violation: kill the channel
	}
	// Pull the payload into pooled scratch without the runtime lock (the
	// socket read may block on a slow sender), then land it under the
	// lock: launches on other arrays interleave between chunks, and the
	// lock edge orders the buffer write against later launches reading it.
	bp := getChunkBuf(n)
	defer putChunkBuf(bp)
	if err := fc.readInto(*bp); err != nil {
		return err
	}
	w.mu.Lock()
	err = st.buf.SetRawBytes(off, *bp)
	w.mu.Unlock()
	if err != nil {
		return err
	}
	st.got += n
	if st.got >= st.total {
		delete(recv, h.reqID)
		return fc.sendResponse(h.reqID, &Response{})
	}
	return nil
}

// serveFetch streams an array's contents back to the requester in chunks,
// then the response. Runs in its own goroutine; chunk writes interleave
// with other operations under the connection's write mutex.
func (w *WorkerServer) serveFetch(fc *framedConn, reqID uint64, req *Request) {
	w.mu.Lock()
	arr := w.rt.Array(req.ArrayID)
	if arr == nil {
		w.mu.Unlock()
		resp := &Response{}
		resp.setErr(fmt.Errorf("fetch of unknown array %d: %w", req.ArrayID, core.ErrArrayNotFound))
		_ = fc.sendResponse(reqID, resp)
		return
	}
	if _, err := w.rt.Node().FlushForSend(arr.Alloc, w.rt.Elapsed()); err != nil {
		w.mu.Unlock()
		resp := &Response{}
		resp.setErr(err)
		_ = fc.sendResponse(reqID, resp)
		return
	}
	raw := arr.Buf.RawBytes()
	w.mu.Unlock()

	// Each chunk is snapshotted into pooled scratch under the runtime lock
	// (ordering the reads against concurrent launches), then written
	// without it so a slow peer never stalls kernel execution.
	bp := getChunkBuf(min(w.pushChunk, len(raw)))
	defer putChunkBuf(bp)
	for off := 0; off < len(raw); off += w.pushChunk {
		data := snapshot(&w.mu, *bp, raw[off:min(off+w.pushChunk, len(raw))])
		if err := fc.writeChunk(reqID, uint64(off), data); err != nil {
			return // channel dead; requester sees the broken conn
		}
	}
	_ = fc.sendResponse(reqID, &Response{})
}

// servePush ships an array to a peer worker over this worker's link to
// it. Pushes run concurrently, to one peer or several.
func (w *WorkerServer) servePush(fc *framedConn, reqID uint64, req *Request) {
	resp := &Response{}
	resp.setErr(w.pushTo(req))
	_ = fc.sendResponse(reqID, resp)
}

// handle executes one control request under the runtime lock.
func (w *WorkerServer) handle(req *Request) *Response {
	resp := &Response{}
	w.mu.Lock()
	defer w.mu.Unlock()
	resp.setErr(w.apply(req, resp))
	return resp
}

// pushTo ships an array to a peer worker. The runtime lock is taken to
// flush the array and then once per chunk, to copy the chunk out; it is
// never held across network I/O — otherwise a cycle of concurrent pushes
// between workers would deadlock, each one holding its runtime lock while
// the peer's receive handler waits for that same lock. No whole-array
// snapshot is needed: the controller orders any launch that writes the
// array after the move that reads it (the DAG's WAR edge), the rule
// serveFetch rests on too.
//
// A cached link can be dead without having noticed (the peer restarted on
// its address, a half-open socket), so a transfer that breaks a reused
// link is retried once on a fresh one — a receive is idempotent. An error
// the peer answered with leaves the link intact and is returned as is.
func (w *WorkerServer) pushTo(req *Request) error {
	w.mu.Lock()
	arr := w.rt.Array(req.ArrayID)
	if arr == nil {
		w.mu.Unlock()
		return fmt.Errorf("push of unknown array %d: %w", req.ArrayID, core.ErrArrayNotFound)
	}
	if _, err := w.rt.Node().FlushForSend(arr.Alloc, w.rt.Elapsed()); err != nil {
		w.mu.Unlock()
		return err
	}
	raw, meta := arr.Buf.RawBytes(), arr.ArrayMeta
	pl := w.peers[req.PeerAddr]
	if pl == nil {
		pl = &peerLink{}
		w.peers[req.PeerAddr] = pl
	}
	w.mu.Unlock()

	for retried := false; ; retried = true {
		bc, fresh, err := w.peerClient(pl, req.PeerAddr)
		if err != nil {
			return err
		}
		err = bc.receiveArray(req.ArrayID, meta, raw, &w.mu)
		if err == nil || fresh || retried || bc.broken() == nil {
			return err
		}
	}
}

// peerClient returns pl's live bulk client, dialing the peer at addr when
// there is none or the last one broke; fresh reports a link dialed by this
// call. The client is tracked like an accepted connection, so Close (and
// MsgShutdown) closes it and a closed server dials no more.
func (w *WorkerServer) peerClient(pl *peerLink, addr string) (bc *bulkClient, fresh bool, err error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.bc != nil {
		if pl.bc.broken() == nil {
			return pl.bc, false, nil
		}
		w.untrack(pl.bc.fc)
		_ = pl.bc.close()
		pl.bc = nil
	}
	fc, err := dialFramed(addr, helloBulk, w.dialTimeout)
	if err != nil {
		return nil, false, fmt.Errorf("p2p dial %s: %w", addr, err)
	}
	if !w.track(fc) {
		_ = fc.close()
		return nil, false, fmt.Errorf("p2p push to %s: this worker is closed: %w", addr, core.ErrTransient)
	}
	fc.writeTimeout = w.chunkTimeout
	pl.bc = newBulkClient(fc, w.pushChunk)
	pl.bc.chunkTimeout = w.chunkTimeout
	return pl.bc, true, nil
}

func (w *WorkerServer) apply(req *Request, resp *Response) error {
	switch req.Kind {
	case MsgPing, MsgShutdown:
		return nil

	case MsgEnsureArray:
		if w.rt.Array(req.Meta.ID) != nil {
			return nil
		}
		_, err := w.rt.NewArrayWithID(req.Meta.ID, req.Meta.Kind, req.Meta.Len)
		if err != nil && errors.Is(err, gpusim.ErrHostMemoryExhausted) {
			err = fmt.Errorf("%w: %v", core.ErrOOM, err)
		}
		return err

	case MsgLaunch:
		vals := make([]grcuda.Value, len(req.Inv.Args))
		for i, a := range req.Inv.Args {
			if a.IsArray {
				arr := w.rt.Array(a.Array)
				if arr == nil {
					return fmt.Errorf("launch references unknown array %d: %w", a.Array, core.ErrArrayNotFound)
				}
				vals[i] = grcuda.ArrValue(arr)
			} else {
				vals[i] = grcuda.ScalarValue(a.Scalar)
			}
		}
		_, err := w.rt.Submit(grcuda.Invocation{
			Kernel: req.Inv.Kernel, Grid: req.Inv.Grid, Block: req.Inv.Block, Args: vals,
		}, 0)
		return err

	case MsgBuildKernel:
		// The runtime's BuildKernel resolves repeated sources through the
		// registry source cache and minicuda's compiled-program cache, so
		// per-run re-broadcasts of the same kernel do no front-end work.
		if _, err := w.rt.BuildKernel(req.Src, req.Signature); err != nil {
			return fmt.Errorf("%w: %v", core.ErrKernelCompile, err)
		}
		return nil

	case MsgFreeArray:
		if w.rt.Array(req.ArrayID) == nil {
			return nil
		}
		return w.rt.FreeArray(req.ArrayID)

	case MsgStats:
		resp.Kernels = w.rt.Launches()
		resp.Arrays = w.rt.ArrayCount()
		resp.Elapsed = int64(w.rt.Elapsed())
		return nil
	}
	return errors.New("unknown request kind")
}
