package transport

import (
	"fmt"
	"sync"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// DialOptions tune a TCP fabric. For the two timeouts, zero selects the
// package default and a negative value disables the deadline entirely —
// so a zero-valued DialOptions behaves safely out of the box.
type DialOptions struct {
	// DialTimeout bounds connection establishment (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// Timeout is the progress deadline: while the worker owes a frame — a
	// control response, the next chunk of a fetch, the acknowledgement of
	// a sent array — it must arrive within Timeout (default
	// DefaultTimeout). A worker that accepts TCP but never answers
	// surfaces as core.ErrTimeout instead of a hang; an idle channel never
	// times out, and a bulk transfer gets unbounded total time as long as
	// chunks keep arriving. The wait for a P2P push command stays
	// unbounded.
	Timeout time.Duration
	// Redial lets an operation that finds its worker's link broken (a
	// transient network drop, not a dead process) replace it with one
	// fresh dial. The fabric never retries or sleeps itself: retrying is
	// the controller's dispatch loop (core.RetryPolicy).
	Redial bool
}

// link is one worker's connection set: a control channel and a bulk
// channel.
type link struct {
	ctrl, bulk *rpcConn

	// ensured remembers the array metadata this link has mirrored on its
	// worker, so EnsureArray sends each array once per link instead of
	// once per launch. It may assume only what this link has seen
	// acknowledged: FreeArray forgets the entry, and a redial makes a new
	// link with an empty set (the worker may have restarted empty).
	emu     sync.Mutex
	ensured map[dag.ArrayID]grcuda.ArrayMeta
}

// broken reports whether either channel recorded a fatal error.
func (l *link) broken() bool {
	return l.ctrl.broken() != nil || l.bulk.broken() != nil
}

func (l *link) close() error {
	err := l.ctrl.close()
	if berr := l.bulk.close(); err == nil {
		err = berr
	}
	return err
}

// TCPFabric implements core.Fabric over real sockets: worker i+1 is the
// process listening at addrs[i]. Each worker gets a dedicated bulk
// channel, so array transfers — streamed in chunks, one behind the other —
// never head-of-line-block pings, launches or failover probes on the
// control channel. Concurrent MoveArray calls queue on their worker's bulk
// channel in the order they started (the core.Fabric concurrent-bulk
// contract). Returned times are wall-clock nanoseconds since Dial.
type TCPFabric struct {
	addrs []string
	// lmu guards links: reconnect (DialOptions.Redial) replaces entries at
	// runtime while concurrent dispatchers read them.
	lmu   sync.RWMutex
	links map[cluster.NodeID]*link
	// stream[w] is the link StartLaunch writes worker w's launches to. A
	// streamed launch may rest on the launches ahead of it on its channel,
	// so the stream stays on one link even after a redial replaced it in
	// links (a dead stream link fails every start); only a blocking Launch
	// that succeeded — its caller has nothing in flight — moves it.
	stream  map[cluster.NodeID]*link
	started time.Time
	// chunk is the outgoing chunk size: chunkBytes, smaller in tests that
	// need many chunks.
	chunk int
	// Resolved options (see DialOptions).
	dialTimeout time.Duration
	timeout     time.Duration
	redial      bool
	// AssumedBandwidth (bytes/s) feeds EstimateTransfer for
	// min-transfer-time scheduling; defaults to the paper's 500 MB/s
	// worker NICs.
	AssumedBandwidth float64
}

// Dial connects to every worker and verifies liveness.
func Dial(addrs []string) (*TCPFabric, error) {
	return DialWith(addrs, DialOptions{})
}

// DialWith is Dial with explicit options.
func DialWith(addrs []string, opts DialOptions) (*TCPFabric, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: no worker addresses")
	}
	f := &TCPFabric{
		addrs:            addrs,
		links:            make(map[cluster.NodeID]*link),
		stream:           make(map[cluster.NodeID]*link),
		started:          time.Now(),
		chunk:            chunkBytes,
		dialTimeout:      pickTimeout(opts.DialTimeout, DefaultDialTimeout),
		timeout:          pickTimeout(opts.Timeout, DefaultTimeout),
		redial:           opts.Redial,
		AssumedBandwidth: 500e6,
	}
	for i, addr := range addrs {
		l, err := f.dialWorker(addr)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("transport: worker %d at %s: %w", i+1, addr, err)
		}
		f.links[cluster.NodeID(i+1)] = l
		f.stream[cluster.NodeID(i+1)] = l
	}
	return f, nil
}

// dialWorker opens one worker's control channel, pings it, then opens
// its bulk channel.
func (f *TCPFabric) dialWorker(addr string) (*link, error) {
	ctrlFC, err := dialFramed(addr, helloControl, f.dialTimeout)
	if err != nil {
		return nil, err
	}
	ctrlFC.writeTimeout = f.timeout
	ctrl := newRPCConn(ctrlFC, f.timeout)
	// The ping proves the worker alive before the bulk channel is
	// dialed, so a port that accepts and hangs up costs one connection.
	if _, err := ctrl.call(&Request{Kind: MsgPing}); err != nil {
		_ = ctrl.close()
		return nil, fmt.Errorf("ping: %w", err)
	}
	bulkFC, err := dialFramed(addr, helloBulk, f.dialTimeout)
	if err != nil {
		_ = ctrl.close()
		return nil, err
	}
	bulkFC.writeTimeout = f.timeout
	return &link{ctrl: ctrl, bulk: newRPCConn(bulkFC, f.timeout),
		ensured: make(map[dag.ArrayID]grcuda.ArrayMeta)}, nil
}

// Close closes all worker connections.
func (f *TCPFabric) Close() error {
	f.lmu.Lock()
	links := f.links
	f.links = make(map[cluster.NodeID]*link)
	f.stream = make(map[cluster.NodeID]*link)
	f.lmu.Unlock()
	var firstErr error
	for _, l := range links {
		if err := l.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Shutdown asks every worker process to exit, then closes connections.
func (f *TCPFabric) Shutdown() error {
	f.lmu.RLock()
	links := make([]*link, 0, len(f.links))
	for _, l := range f.links {
		links = append(links, l)
	}
	f.lmu.RUnlock()
	for _, l := range links {
		_, _ = l.ctrl.call(&Request{Kind: MsgShutdown})
	}
	return f.Close()
}

// now reports wall time since Dial as a virtual timestamp.
func (f *TCPFabric) now() sim.VirtualTime {
	return sim.VirtualTime(time.Since(f.started).Nanoseconds())
}

func (f *TCPFabric) worker(w cluster.NodeID) (*link, error) {
	f.lmu.RLock()
	l, ok := f.links[w]
	f.lmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown worker %v", w)
	}
	if !f.redial || !l.broken() {
		return l, nil
	}
	return f.reconnect(w, l)
}

// reconnect replaces a broken link with one fresh connection set: one dial per
// operation and no sleep, so a transient failure is retried by one loop —
// the controller's dispatch — on one backoff curve. Concurrent dispatchers
// race here benignly: the first to swap in a healthy link wins, the rest
// adopt it. A worker process that actually died refuses the dial, and the
// error propagates into the Controller's retry and failover instead.
func (f *TCPFabric) reconnect(w cluster.NodeID, stale *link) (*link, error) {
	nl, err := f.dialWorker(f.addrs[w-1])
	if err != nil {
		return nil, fmt.Errorf("transport: redial worker %v: %w", w, err)
	}
	f.lmu.Lock()
	cur := f.links[w]
	if cur != nil && cur != stale && !cur.broken() {
		f.lmu.Unlock()
		_ = nl.close()
		return cur, nil // another caller already reconnected
	}
	f.links[w] = nl
	f.lmu.Unlock()
	if cur != nil {
		_ = cur.close()
	}
	return nl, nil
}

// Workers implements core.Fabric.
func (f *TCPFabric) Workers() []cluster.NodeID {
	ids := make([]cluster.NodeID, len(f.addrs))
	for i := range f.addrs {
		ids[i] = cluster.NodeID(i + 1)
	}
	return ids
}

// EnsureArray implements core.Fabric.
func (f *TCPFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	l, err := f.worker(w)
	if err != nil {
		return err
	}
	l.emu.Lock()
	got, ok := l.ensured[meta.ID]
	l.emu.Unlock()
	if ok && got == meta {
		return nil
	}
	if _, err := l.ctrl.call(&Request{Kind: MsgEnsureArray, Meta: meta}); err != nil {
		return err
	}
	l.emu.Lock()
	l.ensured[meta.ID] = meta
	l.emu.Unlock()
	return nil
}

// MoveArray implements core.Fabric: controller->worker ships srcBuf,
// worker->controller fetches into dstBuf (a nil dstBuf takes nothing, so
// nothing crosses the wire), worker->worker triggers a direct P2P push.
// All three travel the bulk channel in chunks; concurrent moves queue on
// it in order.
func (f *TCPFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID,
	_ sim.VirtualTime, srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	if src == dst {
		return f.now(), nil
	}
	switch {
	case src == cluster.ControllerID:
		l, err := f.worker(dst)
		if err != nil {
			return 0, err
		}
		meta := grcuda.ArrayMeta{ID: id}
		var raw []byte
		if srcBuf != nil {
			meta.Kind = srcBuf.Kind
			meta.Len = int64(srcBuf.Len())
			raw = srcBuf.RawBytes()
		}
		if err := l.bulk.sendArray(id, meta, raw, f.chunk, nil); err != nil {
			return 0, err
		}
	case dst == cluster.ControllerID:
		if dstBuf == nil {
			break
		}
		l, err := f.worker(src)
		if err != nil {
			return 0, err
		}
		if err := l.bulk.fetchArray(id, dstBuf.RawBytes()); err != nil {
			return 0, err
		}
	default: // worker -> worker P2P
		l, err := f.worker(src)
		if err != nil {
			return 0, err
		}
		if err := l.bulk.pushTo(id, f.addrs[dst-1]); err != nil {
			return 0, err
		}
	}
	return f.now(), nil
}

// Launch implements core.Fabric.
func (f *TCPFabric) Launch(w cluster.NodeID, inv core.Invocation, _ sim.VirtualTime) (sim.VirtualTime, error) {
	l, err := f.worker(w)
	if err != nil {
		return 0, err
	}
	if _, err := l.ctrl.call(&Request{Kind: MsgLaunch, Inv: inv}); err != nil {
		return 0, err
	}
	if f.streamLink(w) != l {
		f.lmu.Lock()
		f.stream[w] = l
		f.lmu.Unlock()
	}
	return f.now(), nil
}

// streamLink returns the link worker w's streamed launches travel on.
func (f *TCPFabric) streamLink(w cluster.NodeID) *link {
	f.lmu.RLock()
	defer f.lmu.RUnlock()
	return f.stream[w]
}

// StartLaunch implements core.AsyncLauncher: the launch is queued on
// worker w's control channel without waiting for the answers to the
// launches ahead of it — the worker serves the channel strictly in order,
// so it runs after them. done runs on the channel's reader goroutine.
// StartLaunch never redials: the ordering holds per connection, so a
// broken stream link fails the start and the caller's blocking path
// (Launch) re-establishes the worker.
func (f *TCPFabric) StartLaunch(w cluster.NodeID, inv core.Invocation, _ sim.VirtualTime,
	done func(end sim.VirtualTime, err error)) error {
	l := f.streamLink(w)
	if l == nil {
		return fmt.Errorf("transport: unknown worker %v", w)
	}
	return l.ctrl.start(&Request{Kind: MsgLaunch, Inv: inv}, nil, func(resp *Response, err error) {
		if err == nil {
			err = resp.ok()
		}
		if err != nil {
			done(0, err)
			return
		}
		done(f.now(), nil)
	})
}

// FlushLaunches implements core.AsyncLauncher.
func (f *TCPFabric) FlushLaunches(w cluster.NodeID) {
	if l := f.streamLink(w); l != nil {
		l.ctrl.flush()
	}
}

// ConcurrentDispatch implements the deprecated core.ConcurrentDispatcher,
// which the benchmark's traced wrapper still forwards: operations are real
// I/O that queue in order per connection, and times are wall-clock, not
// shared virtual timelines. The controller reads only core.AsyncLauncher.
func (f *TCPFabric) ConcurrentDispatch() bool { return true }

// EstimateTransfer implements core.Fabric using the assumed NIC bandwidth.
func (f *TCPFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	if src == dst || n <= 0 || f.AssumedBandwidth <= 0 {
		return 0
	}
	return sim.VirtualTime(float64(n) / f.AssumedBandwidth * 1e9)
}

// FreeArray implements core.Fabric.
func (f *TCPFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	l, err := f.worker(w)
	if err != nil {
		return err
	}
	l.emu.Lock()
	delete(l.ensured, id)
	l.emu.Unlock()
	_, err = l.ctrl.call(&Request{Kind: MsgFreeArray, ArrayID: id})
	return err
}

// Healthy implements core.Fabric: a liveness ping over the worker's
// control connection. A worker whose bulk channel died is reported
// unhealthy even while its control channel still answers — the data plane
// is gone, so the Controller's failover must write the worker off and
// reship replicas elsewhere.
func (f *TCPFabric) Healthy(w cluster.NodeID) bool {
	l, err := f.worker(w)
	if err != nil {
		return false
	}
	if l.bulk.broken() != nil {
		return false
	}
	_, err = l.ctrl.call(&Request{Kind: MsgPing})
	return err == nil
}

// BuildKernel implements core.KernelBuilder: the source compiles on every
// worker.
func (f *TCPFabric) BuildKernel(src, signature string) error {
	for _, id := range f.Workers() {
		l, err := f.worker(id)
		if err != nil {
			return err
		}
		if _, err := l.ctrl.call(&Request{Kind: MsgBuildKernel, Src: src, Signature: signature}); err != nil {
			return err
		}
	}
	return nil
}

// WorkerStats reports a worker's execution statistics.
type WorkerStats struct {
	Kernels int
	Arrays  int
	Elapsed time.Duration
}

// Stats queries one worker.
func (f *TCPFabric) Stats(w cluster.NodeID) (WorkerStats, error) {
	l, err := f.worker(w)
	if err != nil {
		return WorkerStats{}, err
	}
	resp, err := l.ctrl.call(&Request{Kind: MsgStats})
	if err != nil {
		return WorkerStats{}, err
	}
	return WorkerStats{
		Kernels: resp.Kernels,
		Arrays:  resp.Arrays,
		Elapsed: time.Duration(resp.Elapsed),
	}, nil
}

var _ core.Fabric = (*TCPFabric)(nil)
var _ core.KernelBuilder = (*TCPFabric)(nil)
var _ core.ConcurrentDispatcher = (*TCPFabric)(nil)
var _ core.AsyncLauncher = (*TCPFabric)(nil)
