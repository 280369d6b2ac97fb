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
	"grout/internal/dag"
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
	mu       sync.Mutex
	rt       *grcuda.Runtime
	listener net.Listener
	log      *log.Logger
	closed   bool
	active   map[io.Closer]struct{}
	// chunk is the chunk size of fetch streams and pushes: chunkBytes,
	// smaller in tests that need many chunks. Guarded by mu.
	chunk int
	// peers holds this worker's persistent bulk link to each peer it has
	// pushed to, by address: at most one entry per worker of the fleet.
	peers map[string]*peerLink
	// P2P push deadlines (resolved from ServerOptions).
	dialTimeout time.Duration
	timeout     time.Duration
}

// peerLink is the pushing side of one worker→worker bulk channel. The
// link is dialed by the first push to the peer and shared by every later
// one (pushes to one peer queue on it in order); it lives until it breaks
// — the next push redials — or the server closes. mu serializes dials to
// this one peer and is never held together with the server's lock or
// across a transfer.
type peerLink struct {
	mu sync.Mutex
	bc *rpcConn
}

// ServerOptions tune a WorkerServer beyond the node spec.
type ServerOptions struct {
	// DialTimeout bounds a worker→worker dial: the first P2P push to a
	// peer and every redial of a broken peer link (zero means
	// DefaultDialTimeout, negative disables).
	DialTimeout time.Duration
	// Timeout bounds each outgoing P2P chunk write and the wait for the
	// peer's acknowledgement after the last one (zero means
	// DefaultTimeout, negative disables).
	Timeout time.Duration
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
		rt:          grcuda.NewRuntime(node, kernels.StdRegistry(), grcuda.Options{ExecuteNumeric: true}),
		listener:    ln,
		log:         logger,
		active:      make(map[io.Closer]struct{}),
		peers:       make(map[string]*peerLink),
		chunk:       chunkBytes,
		dialTimeout: pickTimeout(opts.DialTimeout, DefaultDialTimeout),
		timeout:     pickTimeout(opts.Timeout, DefaultTimeout),
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

// serveConn reads the connection hello and serves the channel it names,
// strictly in arrival order: a control channel's launches run one behind
// the other — the ordering the controller's streamed launches rest on —
// and a bulk channel's transfers do too, each consuming or producing its
// chunks before the next request is read. Answers collect in the write
// buffer and go out when no further request is already waiting in the
// read buffer: one write per burst under load, one per request at depth 1.
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
	bulk := hello[4] == helloBulk
	if !bulk && hello[4] != helloControl {
		w.log.Printf("worker: unknown channel %d in hello", hello[4])
		_ = raw.Close()
		return
	}
	fc := newFramedConn(raw, br)
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
			w.log.Printf("worker: unexpected frame type %d", h.ftype)
			return
		}
		bp, err := fc.readPayload(h.n)
		if err != nil {
			return
		}
		perr := parseRequestInto(*bp, &req)
		putFrameBuf(bp)
		if perr != nil {
			w.log.Printf("worker: %v", perr)
			return
		}
		resp, err := w.serve(fc, bulk, h.reqID, &req)
		if err != nil {
			w.log.Printf("worker: %v", err)
			return
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

// serve executes request id, arrived on a bulk or a control channel. Array
// payloads belong on a bulk channel (a peer link is one), everything else
// on a control channel, and a ping is welcome on both. A non-nil error
// means the stream is corrupt and the channel must close.
func (w *WorkerServer) serve(fc *framedConn, bulk bool, id uint64, req *Request) (*Response, error) {
	resp := &Response{}
	payload := req.Kind == MsgReceiveArray || req.Kind == MsgFetchArray || req.Kind == MsgPushTo
	var err error
	switch {
	case payload != bulk && req.Kind != MsgPing:
		ch := "control"
		if bulk {
			ch = "bulk"
		}
		err = fmt.Errorf("request %v not valid on the %s channel", req.Kind, ch)
	case req.Kind == MsgReceiveArray:
		refused, serr := w.receive(fc, id, req)
		if serr != nil {
			return nil, serr
		}
		err = refused
	case req.Kind == MsgFetchArray:
		err = w.fetch(fc, id, req)
	case req.Kind == MsgPushTo:
		err = w.pushTo(req)
	default:
		w.mu.Lock()
		err = w.apply(req, resp)
		w.mu.Unlock()
	}
	resp.setErr(err)
	return resp, nil
}

// receive lands the chunk frames behind receive request id in the array it
// names. Each chunk is read off the socket without the runtime lock (a slow
// sender must not stall launches on other arrays) and applied under it
// (ordering the write before later launches that read the array). Chunks
// must continue one another and add up to exactly the length the request
// declares. A receive the worker refuses — unknown array, wrong size —
// still consumes its chunks, so the next request starts where it should,
// and the refusal is its answer; err reports a stream out of sync.
func (w *WorkerServer) receive(fc *framedConn, id uint64, req *Request) (refused, err error) {
	total := 0
	if req.Meta.Len > 0 {
		total = int(grcuda.ArrayMeta{Kind: req.Meta.Kind, Len: req.Meta.Len}.Bytes())
	}
	buf, refused := w.beginReceive(req, total)
	for got := 0; got < total; {
		h, err := fc.readHeader()
		if err != nil {
			return nil, err
		}
		if h.ftype != frameChunk || h.reqID != id || h.n < chunkOffsetLen {
			return nil, fmt.Errorf("frame type %d id %d inside the chunks of receive %d", h.ftype, h.reqID, id)
		}
		off, err := fc.readChunkOffset()
		if err != nil {
			return nil, err
		}
		n := h.n - chunkOffsetLen
		if off != got || n > total-got {
			return nil, fmt.Errorf("chunk [%d, %d) of receive %d: %d of %d bytes received", off, off+n, id, got, total)
		}
		if refused != nil {
			err = fc.discardPayload(n)
		} else {
			err = w.landChunk(fc, buf, off, n)
		}
		if err != nil {
			return nil, err
		}
		got += n
	}
	return refused, nil
}

// beginReceive checks an incoming array stream of sent bytes against the
// local replica and invalidates its stale device pages; chunks will land
// directly in the array's host buffer.
func (w *WorkerServer) beginReceive(req *Request, sent int) (*kernels.Buffer, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	arr := w.rt.Array(req.ArrayID)
	if arr == nil {
		return nil, fmt.Errorf("receive of unknown array %d: %w", req.ArrayID, core.ErrArrayNotFound)
	}
	// The sender names how many bytes it will stream; a mismatch against
	// the local replica is a protocol-level bug, not data to truncate.
	if local := int(arr.Bytes()); req.Meta.Len > 0 && sent != local {
		return nil, fmt.Errorf("receive of array %d: %d sent bytes vs %d local", req.ArrayID, sent, local)
	}
	if err := w.rt.Node().Invalidate(arr.Alloc); err != nil {
		return nil, err
	}
	return arr.Buf, nil
}

// landChunk reads the n-byte payload of a chunk at byte offset off into
// pooled scratch, then copies it into buf under the runtime lock.
func (w *WorkerServer) landChunk(fc *framedConn, buf *kernels.Buffer, off, n int) error {
	bp := getChunkBuf(n)
	defer putChunkBuf(bp)
	if err := fc.readInto(*bp); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return buf.SetRawBytes(off, *bp)
}

// fetch streams array req.ArrayID back as chunk frames of request id, each
// copied out under the runtime lock and written without it. A write that
// fails breaks the connection, which ends the serve loop at the answer.
func (w *WorkerServer) fetch(fc *framedConn, id uint64, req *Request) error {
	w.mu.Lock()
	raw, _, err := w.sendable("fetch", req.ArrayID)
	chunk := w.chunk
	w.mu.Unlock()
	if err != nil {
		return err
	}
	_ = fc.writeChunks(id, raw, chunk, &w.mu)
	return nil
}

// sendable looks array id up for a fetch or a push, flushes its device
// pages to its host buffer and returns that buffer's bytes. Called with
// w.mu held.
func (w *WorkerServer) sendable(op string, id dag.ArrayID) ([]byte, grcuda.ArrayMeta, error) {
	arr := w.rt.Array(id)
	if arr == nil {
		return nil, grcuda.ArrayMeta{}, fmt.Errorf("%s of unknown array %d: %w", op, id, core.ErrArrayNotFound)
	}
	if _, err := w.rt.Node().FlushForSend(arr.Alloc, w.rt.Elapsed()); err != nil {
		return nil, grcuda.ArrayMeta{}, err
	}
	return arr.Buf.RawBytes(), arr.ArrayMeta, nil
}

// pushTo ships an array to a peer worker. The runtime lock is taken to
// flush the array and then once per chunk, to copy the chunk out; it is
// never held across network I/O — otherwise a cycle of pushes between
// workers would deadlock, each one holding its runtime lock while the
// peer's receive waits for that same lock. No whole-array snapshot is
// needed: the controller orders any launch that writes the array after
// the move that reads it (the DAG's WAR edge), the rule fetch rests on too.
//
// A cached link can be dead without having noticed (the peer restarted on
// its address, a half-open socket), so a transfer that breaks a reused
// link is retried once on a fresh one — a receive is idempotent. An error
// the peer answered with leaves the link intact and is returned as is.
func (w *WorkerServer) pushTo(req *Request) error {
	w.mu.Lock()
	raw, meta, err := w.sendable("push", req.ArrayID)
	if err != nil {
		w.mu.Unlock()
		return err
	}
	chunk := w.chunk
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
		err = bc.sendArray(req.ArrayID, meta, raw, chunk, &w.mu)
		if err == nil || fresh || retried || bc.broken() == nil {
			return err
		}
	}
}

// peerClient returns pl's live link, dialing the peer at addr when there
// is none or the last one broke; fresh reports a link dialed by this call.
// The link is tracked like an accepted connection, so Close (and
// MsgShutdown) closes it and a closed server dials no more.
func (w *WorkerServer) peerClient(pl *peerLink, addr string) (bc *rpcConn, fresh bool, err error) {
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
	fc.writeTimeout = w.timeout
	pl.bc = newRPCConn(fc, w.timeout)
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
