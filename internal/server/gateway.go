// Package server implements the multi-tenant session gateway: one TCP
// listener multiplexing many concurrent client programs ("tenants")
// onto a control plane of one or more core.Controller shards sharing a
// worker fleet (DESIGN.md §5.8).
//
// Each connection gets a core.ControllerSession on exactly one shard — a
// private array namespace, an array-byte quota, and per-tenant counters.
// Routing is pluggable (RouteFunc); the sharded plane (internal/shard)
// supplies a seeded consistent-hash ring so a restarted gateway routes
// identically. Who admits a launch (DESIGN.md §5.5): the tenant's own serve
// goroutine, when nobody on the shard is waiting for admission — the tenant
// has nothing queued, the shard has no backlog, and the tenant is under its
// in-flight cap and holds a rate token; Submit only schedules, so admitting
// there never waits for a launch to run. Otherwise the serve goroutine
// enqueues the launch on the tenant's bounded queue and the owning shard's
// weighted-round-robin drain goroutine feeds that shard's controller, so
// one chatty tenant cannot starve the rest, and a tenant at its in-flight
// cap simply waits its turn. Each shard drains independently — no lock,
// condvar or credit pool is shared between drains, which is what makes
// aggregate admission scale with the shard count. Synchronous operations
// (allocate, read, write, free, build, elapsed) run on the serve goroutine
// after the tenant's queue has flushed, so each session observes its own
// program order.
//
// The session channel is a FIFO pipeline (DESIGN.md §5.5): a client
// streams launches without waiting for their acks, up to DefaultQueueDepth
// unacknowledged, and the serve loop answers into a write buffer it
// flushes when no further request is already waiting, or when a launch
// must wait for queue room.
//
// Error model: launch submission is asynchronous, so a launch that
// fails after its enqueue turns into a per-session sticky error — every
// later operation of that session reports it, like a poisoned CUDA
// stream. Other sessions never see it.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"grout/internal/core"
	"grout/internal/sim"
	"grout/internal/transport"
)

// DefaultQueueDepth bounds each session's launch queue, and is announced
// to the client as its launch window; a tenant that outruns the drain loop
// blocks on its own socket, nobody else's.
const DefaultQueueDepth = 64

// Options tune a Gateway. The zero value is serviceable. A session's
// launch queue, and so its client's launch window, is DefaultQueueDepth.
type Options struct {
	// Limits apply to every session (Weight < 1 becomes 1; zero fields
	// mean unlimited, per core.SessionLimits).
	Limits core.SessionLimits
	// LimitsFor, when non-nil, overrides Limits per tenant: it is called
	// with the tenant name at session open and its result is used when
	// the second return is true. Lets one gateway give different rate,
	// quota, weight or class to different tenants.
	LimitsFor func(tenant string) (core.SessionLimits, bool)
	// ShedDepth enables class-based load shedding: when a shard's
	// aggregate queued-launch backlog reaches ShedDepth*(class+1), new
	// launches from tenants of that priority class are refused with
	// core.ErrShedded instead of enqueued — lowest class first, each
	// higher class tolerating one more ShedDepth of backlog — and so is
	// every launch of that session behind a shed one, until the session's
	// next non-launch request, so what ran is a prefix of what the tenant
	// issued. Shedding is retryable overload, not a sticky error. 0
	// disables shedding.
	ShedDepth int
	// Logger, optional.
	Logger *log.Logger

	// queueDepth replaces DefaultQueueDepth when positive: a test seam for
	// the tests that need a small window.
	queueDepth int
}

// RouteFunc picks the shard for a new tenant session: loads[s] is shard
// s's current session count. Implementations must be safe for
// concurrent calls and deterministic given (tenant, loads) — the
// sharded plane's bounded-load consistent-hash ring qualifies
// (shard.Plane.Route).
type RouteFunc func(tenant string, loads []int) int

var errShutDown = errors.New("server: gateway is shut down")

// shardState is one controller shard's slice of the gateway: its
// sessions, its drain goroutine's condvar and rotation cursor, and its
// admission counter. Every field is guarded by the shard's own mu —
// drains of different shards never touch a shared lock.
type shardState struct {
	idx int
	ctl *core.Controller
	// backlog counts launches queued or mid-admission in the drain loop,
	// summed over the shard's tenants (each tenant's share is its queued):
	// what the shed thresholds compare against, and zero when nobody is
	// waiting for the drain loop's arbitration. drained counts the launches
	// that loop has admitted; a serve goroutine admitted the rest of ces.
	backlog, drained atomic.Int64

	mu        sync.Mutex
	drainCond sync.Cond // wakes this shard's drain loop: enqueue, completion, teardown
	sessions  map[uint64]*tenant
	roster    []*tenant     // sessions as a slice, nil when sessions changed; never edited in place
	rr        int           // round-robin rotation cursor
	ces       int64         // launches handed to this shard's controller
	sheds     map[int]int64 // launches refused with ErrShedded, by priority class
}

// Gateway serves tenant sessions over TCP against a sharded control
// plane. The controllers stay owned by the caller: Close tears down
// sessions and the listener, not the fleet.
type Gateway struct {
	shards []*shardState
	route  RouteFunc
	opt    Options
	ln     net.Listener
	log    *log.Logger

	mu     sync.Mutex
	nextID uint64
	total  int64 // sessions ever opened
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// New starts a single-shard gateway for ctl listening on addr
// ("host:0" picks a free port) — the one-controller deployment is just
// the sharded gateway with N=1.
func New(ctl *core.Controller, addr string, opt Options) (*Gateway, error) {
	return NewSharded([]*core.Controller{ctl}, nil, addr, opt)
}

// NewSharded starts a gateway over one controller shard per entry of
// ctls. route picks each new tenant's shard; nil defaults to an FNV
// hash of the tenant name modulo the shard count (deterministic across
// restarts, but without the bounded-load and minimal-remap properties
// of the consistent-hash ring — pass shard.Plane.Route for those).
func NewSharded(ctls []*core.Controller, route RouteFunc, addr string, opt Options) (*Gateway, error) {
	if len(ctls) == 0 {
		return nil, fmt.Errorf("server: gateway needs at least one controller shard")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	if opt.queueDepth <= 0 {
		opt.queueDepth = DefaultQueueDepth
	}
	logger := opt.Logger
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	if route == nil {
		route = hashRoute
	}
	g := &Gateway{
		route: route,
		opt:   opt,
		ln:    ln,
		log:   logger,
		done:  make(chan struct{}),
	}
	for i, ctl := range ctls {
		sh := &shardState{idx: i, ctl: ctl, sessions: make(map[uint64]*tenant)}
		sh.drainCond.L = &sh.mu
		g.shards = append(g.shards, sh)
	}
	g.wg.Add(1 + len(g.shards))
	go g.acceptLoop()
	for _, sh := range g.shards {
		go g.drainLoop(sh)
	}
	return g, nil
}

// hashRoute is the default RouteFunc: FNV-1a of the tenant name modulo
// the shard count. Deterministic, load-blind.
func hashRoute(tenant string, loads []int) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime
	}
	return int(h % uint64(len(loads)))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Addr reports the gateway's listening address.
func (g *Gateway) Addr() string { return g.ln.Addr().String() }

// Shards reports the gateway's controller shard count.
func (g *Gateway) Shards() int { return len(g.shards) }

// Close stops accepting, disconnects every session (their arrays are
// freed, their queued launches dropped), and waits for the serve and
// drain goroutines. The controllers are left running.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	close(g.done)
	g.mu.Unlock()
	var conns []*transport.SessionConn
	for _, sh := range g.shards {
		sh.mu.Lock()
		for _, t := range sh.sessions {
			conns = append(conns, t.conn)
			// The drains stop here; release sync ops parked behind them.
			t.mu.Lock()
			t.flushed.Broadcast()
			t.mu.Unlock()
		}
		sh.drainCond.Broadcast()
		sh.mu.Unlock()
	}
	err := g.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	g.wg.Wait()
	return err
}

func (g *Gateway) acceptLoop() {
	defer g.wg.Done()
	for {
		raw, err := g.ln.Accept()
		if err != nil {
			return // listener closed
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			// A client sends its hello as soon as it has dialed, so
			// the dial deadline bounds the wait for it too.
			conn, err := transport.AcceptSession(raw, transport.DefaultDialTimeout)
			if err != nil {
				g.log.Printf("server: handshake from %s: %v", raw.RemoteAddr(), err)
				return
			}
			g.serve(conn)
		}()
	}
}

// loads snapshots every shard's current session count, indexed by shard.
func (g *Gateway) loads() []int {
	out := make([]int, len(g.shards))
	for i, sh := range g.shards {
		sh.mu.Lock()
		out[i] = len(sh.sessions)
		sh.mu.Unlock()
	}
	return out
}

// register opens a session for conn under the given tenant name,
// routing it to a shard.
func (g *Gateway) register(conn *transport.SessionConn, name string) (*tenant, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, errShutDown
	}
	g.nextID++
	g.total++
	id := g.nextID
	g.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("tenant-%d", id)
	}
	s := g.route(name, g.loads())
	if s < 0 || s >= len(g.shards) {
		return nil, fmt.Errorf("server: route sent tenant %q to shard %d of %d", name, s, len(g.shards))
	}
	sh := g.shards[s]
	lim := g.opt.Limits
	if g.opt.LimitsFor != nil {
		if l, ok := g.opt.LimitsFor(name); ok {
			lim = l
		}
	}
	t := &tenant{
		id:    id,
		name:  name,
		sess:  core.NewControllerSession(sh.ctl, name, lim),
		conn:  conn,
		shard: sh,
		done:  g.done,
		queue: make(chan queuedLaunch, g.opt.queueDepth),
	}
	t.flushed.L = &t.mu
	if lim.RatePerSec > 0 {
		// Start with a full bucket: a fresh session may burst.
		t.tokens = float64(lim.Burst)
		if t.tokens < 1 {
			t.tokens = 1
		}
		t.lastRefill = time.Now()
	}
	sh.mu.Lock()
	sh.sessions[t.id] = t
	sh.roster = nil
	sh.mu.Unlock()
	return t, nil
}

// teardown disconnects a tenant: drop its queued launches, wait out the
// ones already handed to the controller, then free its arrays. Runs on
// the tenant's own serve goroutine, so no session method races it.
func (g *Gateway) teardown(t *tenant) {
	sh := t.shard
	sh.mu.Lock()
	delete(sh.sessions, t.id)
	sh.roster = nil
	sh.drainCond.Broadcast()
	sh.mu.Unlock()
	// Drain the queue ourselves; the drain loop may race us for items,
	// but it drops a gone tenant's pops, so either way nothing more is
	// submitted. Then wait for pops still mid-flight in the drain loop.
	t.mu.Lock()
	t.gone = true
	for drained := false; !drained; {
		select {
		case <-t.queue:
			t.dropLocked()
		default:
			drained = true
		}
	}
	for t.queued > 0 {
		t.flushed.Wait()
	}
	t.mu.Unlock()
	if err := t.sess.Close(); err != nil {
		g.log.Printf("server: teardown of %q: %v", t.name, err)
	}
}

// serve runs one tenant's request loop. The first frame must be
// SessOpen; every later frame is answered in order. Answers collect in
// the connection's write buffer and leave when no further request is
// already waiting in the read buffer — one write per burst from a
// pipelined client, one per request from a blocking one — or when a
// launch finds the tenant's queue full (handleLaunch): held back across
// that wait, acks the client's launch window is waiting for would never
// leave. A non-launch request needs no flush ahead of it: its client is
// waiting for its answer, and the acks sit before that answer in the same
// buffer.
func (g *Gateway) serve(conn *transport.SessionConn) {
	defer conn.Close()
	req := &transport.SessionRequest{}
	reqID, err := conn.ReadRequest(req)
	if err != nil {
		return
	}
	resp := &transport.SessionResponse{}
	if req.Kind != transport.SessOpen {
		resp.SetErr(fmt.Errorf("server: expected open, got %v", req.Kind))
		_ = conn.Reply(reqID, resp)
		return
	}
	t, err := g.register(conn, req.Name)
	if err != nil {
		resp.SetErr(err)
		_ = conn.Reply(reqID, resp)
		return
	}
	resp.Name = t.name
	resp.Shard = t.shard.idx
	resp.ShardCount = len(g.shards)
	// QueueCap is the client's launch window.
	resp.BP = &transport.Backpressure{QueueCap: g.opt.queueDepth}
	if err := conn.Reply(reqID, resp); err != nil {
		g.teardown(t)
		return
	}
	g.log.Printf("server: session %q open from %s on shard %d", t.name, conn.RemoteAddr(), t.shard.idx)
	// shedding: once a launch of this session is shed, so is every launch
	// behind it until the session's next non-launch request — a pipelined
	// client has launches in flight past the shed one, and what ran must
	// stay a prefix of what it issued.
	shedding := false
	for {
		if reqID, err = conn.ReadRequest(req); err != nil {
			break // disconnect: tear the session down below
		}
		resp := &transport.SessionResponse{}
		if req.Kind != transport.SessLaunch {
			shedding = false
		}
		switch req.Kind {
		case transport.SessPing:
			// nothing: the empty OK response is the answer
		case transport.SessShardInfo:
			resp.Shard = t.shard.idx
			resp.ShardCount = len(g.shards)
		case transport.SessBackpressure:
			t.mu.Lock()
			resp.BP = t.advisoryLocked(g.opt.queueDepth, time.Now())
			if resp.BP == nil {
				// A poll always gets a frame, even when all is calm.
				resp.BP = &transport.Backpressure{Queued: t.queued, QueueCap: g.opt.queueDepth}
			}
			t.mu.Unlock()
		case transport.SessLaunch:
			shedding = g.handleLaunch(t, req, resp, shedding)
		case transport.SessNewArray, transport.SessHostWrite, transport.SessHostRead,
			transport.SessFree, transport.SessBuildKernel, transport.SessElapsed:
			if err := t.flush(); err != nil {
				resp.SetErr(err)
				break
			}
			t.syncOp(req, resp)
		case transport.SessClose:
			// The empty OK is the goodbye; the loop ends once it is sent.
		case transport.SessOpen:
			resp.SetErr(fmt.Errorf("server: session %q is already open", t.name))
		default:
			resp.SetErr(fmt.Errorf("server: unknown request %v", req.Kind))
		}
		if err := conn.BufferReply(reqID, resp); err != nil {
			break
		}
		closing := req.Kind == transport.SessClose
		if closing || !conn.RequestWaiting() {
			if err := conn.Flush(); err != nil {
				break
			}
		}
		if closing {
			break
		}
	}
	g.teardown(t)
	g.log.Printf("server: session %q closed", t.name)
}

// handleLaunch admits one launch, or enqueues it for the drain loop to
// admit. It admits when there is nothing to arbitrate: the tenant has no
// launch queued or mid-admission (so issue order holds), no tenant of the
// shard has, and the tenant is under its in-flight cap and holds a rate
// token. Every other launch takes the queue, as if nothing were ever
// admitted here. The reply acknowledges the launch and, for a rate-limited
// tenant out-running its token bucket, piggybacks a backpressure advisory;
// submission failures surface as the session's sticky error. With shedding
// enabled, a launch that finds the shard's aggregate backlog over the
// tenant class's threshold — or that follows a shed launch of its session
// (shedding) — is refused with core.ErrShedded instead of enqueued: a
// retryable refusal, not a sticky one. It reports whether the launch was
// shed.
func (g *Gateway) handleLaunch(t *tenant, req *transport.SessionRequest, resp *transport.SessionResponse, shedding bool) bool {
	sh := t.shard
	class := max(t.sess.Limits().Class, 0)
	var shed error
	if threshold := g.opt.ShedDepth * (class + 1); shedding {
		shed = fmt.Errorf("%w: shard %d refuses launches behind a shed one until the session synchronizes",
			core.ErrShedded, sh.idx)
	} else if threshold > 0 {
		if backlog := int(sh.backlog.Load()); backlog >= threshold {
			shed = fmt.Errorf("%w: shard %d backlog %d over class-%d threshold %d",
				core.ErrShedded, sh.idx, backlog, class, threshold)
		}
	}
	now := time.Now()
	sticky := t.sess.Err() // a poisoned session says so, overloaded shard or not
	if sticky != nil {
		resp.SetErr(sticky)
		return false
	}
	if shed != nil {
		t.sess.NoteShed()
		sh.noteShed(class)
		resp.SetErr(shed)
		return true
	}
	inline := false
	t.mu.Lock()
	if t.queued == 0 && sh.backlog.Load() == 0 && t.capRoomLocked() {
		if inline, _ = t.rateRoomLocked(now); inline {
			t.takeTokenLocked()
		}
	}
	if !inline {
		t.queued++
		sh.backlog.Add(1)
	}
	resp.BP = t.advisoryLocked(g.opt.queueDepth, now)
	t.mu.Unlock()
	q := queuedLaunch{inv: req.Inv, at: now}
	if inline {
		sh.admit(t, q)
		return false
	}
	select {
	case t.queue <- q:
	default:
		// Full: this waits for the drain, and the client may be waiting
		// for the acks buffered so far. A failed flush shows on the reply.
		_ = t.conn.Flush()
		select {
		case t.queue <- q:
		case <-g.done:
			t.mu.Lock()
			t.dropLocked()
			t.mu.Unlock()
			resp.BP = nil
			resp.SetErr(errShutDown)
			return false
		}
	}
	sh.mu.Lock()
	sh.drainCond.Broadcast()
	sh.mu.Unlock()
	return false
}

// noteShed bumps the shard's per-class shed counter.
func (sh *shardState) noteShed(class int) {
	sh.mu.Lock()
	if sh.sheds == nil {
		sh.sheds = make(map[int]int64)
	}
	sh.sheds[class]++
	sh.mu.Unlock()
}

// drainLoop is one shard's admission goroutine: it feeds the shard's
// controller from its tenants' queues by weighted round-robin, honoring
// each session's in-flight cap. Weight-w tenants get up to w
// submissions per pass; a capped or empty tenant just loses its turn.
// Credits are scoped per shard — each loop owns its condvar, cursor and
// roster, so shards admit concurrently without sharing a lock.
func (g *Gateway) drainLoop(sh *shardState) {
	defer g.wg.Done()
	for {
		sh.mu.Lock()
		for !g.isClosed() {
			ready, retry := sh.workReadyLocked(time.Now())
			if ready {
				break
			}
			if retry > 0 {
				// Every submittable tenant is only waiting on its token
				// bucket: nothing will signal the condvar when it refills,
				// so sleep until the earliest refill (bounded, so shutdown
				// stays snappy) and re-check.
				sh.mu.Unlock()
				if retry > maxRateSleep {
					retry = maxRateSleep
				}
				time.Sleep(retry)
				sh.mu.Lock()
				continue
			}
			sh.drainCond.Wait()
		}
		if g.isClosed() {
			sh.mu.Unlock()
			return
		}
		if sh.roster == nil {
			sh.roster = make([]*tenant, 0, len(sh.sessions))
			for _, t := range sh.sessions {
				sh.roster = append(sh.roster, t)
			}
		}
		roster := sh.roster
		// Rotate the starting tenant so map-order ties don't favor
		// anyone across rounds.
		if n := len(roster); n > 1 {
			sh.rr = (sh.rr + 1) % n
		}
		start := sh.rr
		sh.mu.Unlock()
		sh.drainRound(roster, start)
	}
}

// isClosed reports the gateway-wide shutdown flag; the per-shard drain
// loops poll it between rounds.
func (g *Gateway) isClosed() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// maxRateSleep bounds one rate-limited drain nap so the loop re-checks
// the shutdown flag (and newly signaled work) promptly.
const maxRateSleep = 25 * time.Millisecond

// workReadyLocked reports whether any of the shard's tenants has a
// submittable launch. When none has but at least one is blocked only on
// its token bucket, the second return is the earliest refill delay —
// the drain loop sleeps that long instead of waiting on the condvar,
// which nothing would signal. Caller holds sh.mu.
func (sh *shardState) workReadyLocked(now time.Time) (bool, time.Duration) {
	var retry time.Duration
	for _, t := range sh.sessions {
		t.mu.Lock()
		ready := t.queued > 0 && !t.gone && t.capRoomLocked()
		if ready {
			var wait time.Duration
			if ready, wait = t.rateRoomLocked(now); !ready && (retry == 0 || wait < retry) {
				retry = wait
			}
		}
		t.mu.Unlock()
		if ready {
			return true, 0
		}
	}
	return false, retry
}

// drainRound makes weighted passes over the shard's roster, each
// beginning at tenant start, until no tenant can submit anything more
// right now.
func (sh *shardState) drainRound(roster []*tenant, start int) {
	for progress := true; progress; {
		progress = false
		for k := range roster {
			t := roster[(start+k)%len(roster)]
			for credits := t.sess.Limits().Weight; credits > 0; credits-- {
				t.mu.Lock()
				rateOK, _ := t.rateRoomLocked(time.Now())
				room := !t.gone && t.capRoomLocked() && rateOK
				t.mu.Unlock()
				if !room {
					// Capped or out of tokens: the tenant loses its turn
					// (the drain loop naps on the refill when every
					// submittable tenant is rate-blocked).
					break
				}
				select {
				case q := <-t.queue:
					t.mu.Lock()
					t.takeTokenLocked()
					t.mu.Unlock()
					sh.submitOne(t, q)
					progress = true
				default:
					credits = 0
				}
			}
		}
	}
}

// submitOne is the drain loop's admission of one launch it popped: it
// drops the launch of a gone or poisoned session, admits any other, and
// gives the queue slot back.
func (sh *shardState) submitOne(t *tenant, q queuedLaunch) {
	t.mu.Lock()
	if t.gone || t.sess.Err() != nil {
		t.dropLocked()
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	if sh.admit(t, q) {
		sh.drained.Add(1)
	}
	t.mu.Lock()
	t.queued--
	sh.backlog.Add(-1)
	if t.queued == 0 {
		t.flushed.Broadcast()
	}
	t.mu.Unlock()
}

// admit hands one launch to the shard's controller on the tenant's behalf,
// from the drain loop or from the tenant's serve goroutine, and reports
// whether the controller took it; a failure is kept by the session as its
// sticky error (ControllerSession.Err). The session counts the launch in
// flight until it resolves. A capped tenant's launch also gets a hook that
// wakes the drain loop when launches wait for the credit it returns: hooks
// run in registration order, so the session has counted the launch out by
// then.
func (sh *shardState) admit(t *tenant, q queuedLaunch) bool {
	t.sess.NoteAdmissionWait(time.Since(q.at))
	p, err := t.sess.Submit(q.inv)
	if err != nil {
		return false
	}
	sh.mu.Lock()
	sh.ces++
	sh.mu.Unlock()
	if t.sess.Limits().MaxInflightCEs > 0 {
		p.OnDone(func(sim.VirtualTime, error) {
			t.mu.Lock()
			waiting := t.queued > 0
			t.mu.Unlock()
			if waiting {
				sh.mu.Lock()
				sh.drainCond.Broadcast()
				sh.mu.Unlock()
			}
		})
	}
	return true
}
