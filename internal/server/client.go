package server

// Client is the tenant side of the session wire: it implements the
// workloads.Session surface over a gateway connection, so any workload
// written against that interface runs unmodified through the gateway.
//
// Numeric-mode workloads initialize and inspect arrays through
// Buffer(id); a remote client can't alias the controller's host copy,
// so each array gets a local mirror buffer. HostWrite ships the mirror
// to the gateway; HostRead refreshes it. Between the two, the mirror is
// simply the tenant's private staging memory — exactly the host-code
// role it plays in-process.
//
// Launches are asynchronous, as in CUDA: Launch returning nil means the
// launch was accepted for sending, not that the gateway took it. The
// session channel is a FIFO pipeline (DESIGN.md §5.5): a launch frame
// goes out at once when nothing sent is still unacknowledged, otherwise
// with the frames behind it when the outstanding acks arrive, when the
// launch window (the gateway's queue depth) fills, or when a
// synchronizing call is made. Every other call synchronizes: it flushes,
// waits for its own answer, and — answers arrive in order — has by then
// seen the ack of every earlier launch.
//
// Errors: a launch the gateway refuses is reported by the next call that
// observes its ack — a later Launch or the next synchronizing call — in
// place of that call's own outcome (a Launch that reports one was not
// sent). A sticky session error keeps coming back from every later
// operation, like a poisoned CUDA stream. A shed refusal
// (core.ErrShedded) is retryable and arrives as a *ShedError: the
// gateway refuses every launch after the first shed one until the
// session's next synchronizing call, so what ran is a prefix of what was
// issued, and ShedError.Accepted says how long a prefix — synchronize,
// then resume from the first refused launch.
//
// A Client is not safe for concurrent use; one client program drives it
// sequentially, like a CUDA stream. Open several clients for
// concurrency — that's the gateway's whole point.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
	"grout/internal/transport"
	"grout/internal/workloads"
)

// Client is one tenant session on a gateway.
type Client struct {
	conn    *transport.SessionConn
	name    string
	mirrors map[dag.ArrayID]*kernels.Buffer
	closed  bool
	// window is how many launches may be unacknowledged at once: the
	// gateway's per-tenant queue depth, learned from the open reply and
	// capped at maxWindow. It is protocol, not courtesy — it bounds the
	// bytes in flight in both directions (window × ~150 B of requests,
	// ~70 B of acks; tens of KiB at the cap) below what one socket
	// buffers, which is what makes it safe for the connection's reader
	// goroutine to flush (see launchAcked).
	window int
	// onAck is launchAcked as a func value, made once.
	onAck func(*transport.SessionResponse, error)

	// mu guards everything below: the caller's goroutine and the
	// connection's reader goroutine (launchAcked) share it. It is never
	// held across a socket operation.
	mu   sync.Mutex
	room sync.Cond // signaled when unacked drops
	// unacked counts launches started whose ack has not been processed;
	// unsent is how many launch frames the write buffer may still hold.
	// unsent is an upper bound (a frame can leave early on somebody
	// else's flush), which costs at most an empty flush; it is raised
	// only after the frame is in the buffer, so a frame is never left
	// there with no flush to come.
	unacked, unsent int
	// accepted counts launches the gateway took since the previous
	// synchronizing call (ShedError.Accepted).
	accepted int
	// launchErr is the first launch refusal not yet reported.
	launchErr error
	// deferred holds an error a non-fallible call (Elapsed) had to
	// swallow; the next Sync reports it instead of silently losing it.
	deferred error

	// pace is the client's adaptive launch pacing from the gateway's
	// backpressure advisories: it tracks the latest suggested pause and
	// halves whenever a launch ack arrives without one, so a rate-limited
	// client slows to its token refill instead of parking the gateway's
	// serve loop on a full queue, and speeds back up as the backlog
	// clears. ignoreBP (SetHonorBackpressure) disables the slowdown — the
	// behavior of a hostile or legacy client.
	pace     time.Duration
	ignoreBP bool
}

// ShedError reports launches the gateway shed (errors.Is core.ErrShedded).
type ShedError struct {
	// Accepted is how many launches since the previous synchronizing call
	// the gateway took before it shed one; every later launch, up to the
	// call that reports this error, was refused.
	Accepted int
	// Err is the gateway's refusal of the first shed launch.
	Err error
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (%d launches accepted before it)", e.Err, e.Accepted)
}

func (e *ShedError) Unwrap() error { return e.Err }

// maxWindow caps the launch window whatever queue depth the gateway
// announces: the reader goroutine's flush must never wait on a socket
// full of launches whose acks only the reader can take in.
const maxWindow = 256

// minPace is the decay floor: a pace below it snaps to zero.
const minPace = 50 * time.Microsecond

// SetHonorBackpressure chooses whether Launch honors the gateway's
// backpressure advisories by pacing itself (the default). Passing false
// models a hostile over-limit tenant: launches go out as fast as the
// launch window allows and the gateway's queue bound plus token bucket
// do all the throttling.
func (c *Client) SetHonorBackpressure(honor bool) {
	c.mu.Lock()
	c.ignoreBP = !honor
	if c.ignoreBP {
		c.pace = 0
	}
	c.mu.Unlock()
}

// Pace reports the client's current backpressure pacing (0 = full
// speed); mostly for tests and diagnostics. Advisories ride on launch
// acks, so the pace reflects the launches acknowledged so far.
func (c *Client) Pace() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pace
}

// Backpressure polls the gateway's flow-control advisory for this
// tenant and folds it into the client's pacing.
func (c *Client) Backpressure() (*transport.Backpressure, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessBackpressure})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.observeBPLocked(resp.BP)
	c.mu.Unlock()
	return resp.BP, nil
}

// observeBPLocked folds one ack's advisory (or its absence) into the
// pace.
func (c *Client) observeBPLocked(bp *transport.Backpressure) {
	if c.ignoreBP {
		return
	}
	if bp != nil && bp.Pause > 0 {
		// Move halfway toward the gateway's suggestion — adaptive, so a
		// single outlier advisory doesn't park the client.
		c.pace = (c.pace + bp.Pause) / 2
		if c.pace < bp.Pause/2 {
			c.pace = bp.Pause / 2
		}
		return
	}
	c.pace /= 2
	if c.pace < minPace {
		c.pace = 0
	}
}

// Dial opens a tenant session on the gateway at addr. name labels the
// tenant in the gateway's metrics; empty picks a server-assigned one.
// dialTimeout zero means transport.DefaultDialTimeout, negative
// disables; callTimeout bounds the wait for the gateway's next answer
// while any request is outstanding, the same way (reads and
// synchronization legitimately take long — prefer generous values).
func Dial(addr, name string, dialTimeout, callTimeout time.Duration) (*Client, error) {
	conn, err := transport.DialSession(addr, dialTimeout, callTimeout)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, mirrors: make(map[dag.ArrayID]*kernels.Buffer), window: 1}
	c.room.L = &c.mu
	c.onAck = c.launchAcked
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessOpen, Name: name})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	c.name = resp.Name
	if resp.BP != nil && resp.BP.QueueCap > 1 {
		c.window = min(resp.BP.QueueCap, maxWindow)
	}
	return c, nil
}

// Name reports the tenant name the gateway assigned.
func (c *Client) Name() string { return c.name }

var errClientClosed = errors.New("grout: session client is closed")

// call runs one synchronizing round trip: it flushes the launches queued
// before it, and when it returns their acks have all been processed. A
// launch refusal among them is reported in place of the call's own
// result.
func (c *Client) call(req *transport.SessionRequest) (*transport.SessionResponse, error) {
	if c.closed {
		return nil, errClientClosed
	}
	// Call flushes whatever the buffer holds, this request included; with
	// unsent at zero the reader leaves the buffer alone, so a non-launch
	// frame (a HostWrite can be large) is only ever written here.
	c.mu.Lock()
	c.unsent = 0
	c.mu.Unlock()
	resp, err := c.conn.Call(req)
	c.mu.Lock()
	lerr := c.launchErr
	c.launchErr, c.accepted = nil, 0
	c.mu.Unlock()
	if lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return resp, resp.Ok()
}

// flushDueLocked is the Nagle rule: buffered launch frames leave when
// nothing sent is still unacknowledged. When it reports true the caller
// flushes after releasing mu.
func (c *Client) flushDueLocked() bool {
	if c.unsent == 0 || c.unacked > c.unsent {
		return false
	}
	c.unsent = 0
	return true
}

// launchAcked runs on the connection's reader goroutine for every launch
// ack (or, with err set, for every launch in flight when the connection
// died). It returns the launch's window credit, keeps the first refusal
// for the next call to report, folds the ack's advisory into the pace,
// and — the reader is the only asynchronous agent a quiet client has —
// flushes the launch frames that queued up behind the acks now all in.
// That write cannot block for long: the window bounds what is in flight
// (see Client.window).
func (c *Client) launchAcked(resp *transport.SessionResponse, err error) {
	if err == nil {
		err = resp.Ok()
	}
	c.mu.Lock()
	c.unacked--
	switch {
	case err == nil:
		c.accepted++
	case c.launchErr != nil:
	case errors.Is(err, core.ErrShedded):
		c.launchErr = &ShedError{Accepted: c.accepted, Err: err}
	default:
		c.launchErr = err
	}
	if resp != nil {
		c.observeBPLocked(resp.BP)
	}
	flush := c.flushDueLocked()
	c.room.Signal()
	c.mu.Unlock()
	if flush {
		_ = c.conn.Flush()
	}
}

// NewArray implements workloads.Session.
func (c *Client) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessNewArray, Elem: kind, Len: n})
	if err != nil {
		return 0, err
	}
	c.mirrors[resp.Array] = kernels.NewBuffer(kind, int(n))
	return resp.Array, nil
}

// Launch implements workloads.Session: it queues the launch on the
// session pipeline and returns without waiting for the gateway's ack,
// blocking only while a full window of launches is unacknowledged. args
// is encoded before Launch returns, so the caller may reuse it. A nil
// return means "accepted for sending"; the comment at the top of this
// file says how refusals and failures after the enqueue surface. When
// acks carry backpressure advisories the client paces itself before
// sending (unless SetHonorBackpressure turned that off).
func (c *Client) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	if c.closed {
		return errClientClosed
	}
	c.mu.Lock()
	if c.unacked >= c.window && c.unsent > 0 {
		// The window is full and part of it has not left yet.
		c.unsent = 0
		c.mu.Unlock()
		_ = c.conn.Flush()
		c.mu.Lock()
	}
	// A dead connection fails every launch in flight, so unacked drains.
	for c.unacked >= c.window {
		c.room.Wait()
	}
	err, pace := c.launchErr, c.pace
	c.launchErr = nil
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if pace > 0 {
		time.Sleep(pace)
	}
	req := transport.SessionRequest{Kind: transport.SessLaunch,
		Inv: core.Invocation{Kernel: kernel, Grid: grid, Block: block, Args: args}}
	if err := c.conn.Start(&req, c.onAck); err != nil {
		return err
	}
	// Counted only now that the frame is in the write buffer: counted
	// earlier, the reader could flush between the count and the buffer
	// write and leave this frame with no flush to come.
	c.mu.Lock()
	c.unacked++
	c.unsent++
	flush := c.flushDueLocked()
	c.mu.Unlock()
	if flush {
		_ = c.conn.Flush()
	}
	return nil
}

// HostRead implements workloads.Session: it synchronizes the array on
// the gateway and refreshes the local mirror in place (so references
// from Buffer stay valid).
func (c *Client) HostRead(id dag.ArrayID) error {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessHostRead, Array: id})
	if err != nil {
		return err
	}
	mirror := c.mirrors[id]
	if mirror == nil || resp.Data == nil {
		return nil
	}
	return mirror.SetRawBytes(0, resp.Data.RawBytes())
}

// HostWrite implements workloads.Session: it ships the mirror's
// contents as the array's new authoritative data.
func (c *Client) HostWrite(id dag.ArrayID) error {
	mirror := c.mirrors[id]
	if mirror == nil {
		return fmt.Errorf("grout: host write of unknown array %d", id)
	}
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessHostWrite, Array: id, Data: mirror})
	return err
}

// Buffer implements workloads.Session: the local mirror.
func (c *Client) Buffer(id dag.ArrayID) workloads.BufferLike {
	if b := c.mirrors[id]; b != nil {
		return b
	}
	return nil
}

// Free implements workloads.Session.
func (c *Client) Free(id dag.ArrayID) error {
	if _, err := c.call(&transport.SessionRequest{Kind: transport.SessFree, Array: id}); err != nil {
		return err
	}
	delete(c.mirrors, id)
	return nil
}

// Elapsed implements workloads.Session. It is the session's
// synchronization point: the gateway waits until every launch this session
// submitted has dispatched — not for other tenants' — and reports the
// shared fleet's virtual clock as of then, so an error-free return also
// means every prior launch of the session dispatched cleanly. The
// interface gives Elapsed no error return, so a
// failed round trip (sticky session poison, transport loss) yields 0 —
// but the error is retained and reported by the next Sync. Callers
// recording makespans must pair Elapsed with Sync to tell a genuine
// zero from a failed session.
func (c *Client) Elapsed() sim.VirtualTime {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessElapsed})
	if err != nil {
		if c.deferred == nil {
			c.deferred = err
		}
		return 0
	}
	return sim.VirtualTime(resp.Elapsed)
}

// Sync waits until every launch the session submitted has dispatched,
// reporting the session's sticky error, if any — the failure of a launch
// it waited for included, and one a prior Elapsed had to swallow. It is
// scoped to the session: other tenants' launches are neither waited for
// nor held up (core.ControllerSession.Elapsed).
func (c *Client) Sync() error {
	if err := c.deferred; err != nil {
		c.deferred = nil
		return err
	}
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessElapsed})
	return err
}

// BuildKernel compiles a mini-CUDA kernel fleet-wide and returns the
// name to launch it by.
func (c *Client) BuildKernel(src, signature string) (string, error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessBuildKernel, Src: src, Signature: signature})
	if err != nil {
		return "", err
	}
	return resp.Name, nil
}

// ShardInfo reports which controller shard serves this tenant and the
// gateway's shard count (0 of 1 on an unsharded gateway).
func (c *Client) ShardInfo() (shard, count int, err error) {
	resp, err := c.call(&transport.SessionRequest{Kind: transport.SessShardInfo})
	if err != nil {
		return 0, 0, err
	}
	return resp.Shard, resp.ShardCount, nil
}

// Ping round-trips an empty frame (liveness checks).
func (c *Client) Ping() error {
	_, err := c.call(&transport.SessionRequest{Kind: transport.SessPing})
	return err
}

// Close ends the session: the gateway frees the tenant's arrays and
// drops its queued launches. The connection's reader goroutine has
// exited when Close returns. Idempotent.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	// Best-effort goodbye; the gateway tears down on disconnect anyway.
	_, _ = c.conn.Call(&transport.SessionRequest{Kind: transport.SessClose})
	return c.conn.Close()
}
