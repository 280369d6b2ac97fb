package server

// tenant.go is the gateway's per-connection state: the tenant's bounded
// launch queue and its accounting, the token bucket and the backpressure
// advisory built from it, and the synchronous operations the serve
// goroutine runs once the queue has flushed.

import (
	"sync"
	"time"

	"grout/internal/core"
	"grout/internal/transport"
)

// queuedLaunch is one launch waiting in a tenant's queue.
type queuedLaunch struct {
	inv core.Invocation
	at  time.Time
}

// tenant is the gateway's per-connection state around a controller
// session.
type tenant struct {
	id    uint64
	name  string
	sess  *core.ControllerSession
	conn  *transport.SessionConn
	shard *shardState
	done  <-chan struct{} // the gateway's shutdown signal

	queue chan queuedLaunch

	mu      sync.Mutex
	flushed sync.Cond // signaled when queued drops to 0
	queued  int       // enqueued but not yet handed to the controller
	dropped int64     // launches discarded (teardown or poisoned session)
	gone    bool      // torn down; the drain loop must not submit for it

	// Token bucket (SessionLimits.RatePerSec/Burst): tokens is the
	// current allowance, refilled lazily from the wall clock at each
	// check — no timer goroutine per tenant. Guarded by mu.
	tokens     float64
	lastRefill time.Time
}

// rateRoomLocked refills the token bucket from the wall clock and
// reports whether an admission token is available; when not, the second
// return is how long until one refills. Caller holds t.mu. Unlimited
// sessions (RatePerSec <= 0) always have room.
func (t *tenant) rateRoomLocked(now time.Time) (bool, time.Duration) {
	lim := t.sess.Limits()
	if lim.RatePerSec <= 0 {
		return true, 0
	}
	burst := float64(lim.Burst)
	if burst < 1 {
		burst = 1
	}
	t.tokens += now.Sub(t.lastRefill).Seconds() * lim.RatePerSec
	t.lastRefill = now
	if t.tokens > burst {
		t.tokens = burst
	}
	if t.tokens >= 1 {
		return true, 0
	}
	return false, time.Duration((1 - t.tokens) / lim.RatePerSec * float64(time.Second))
}

// takeTokenLocked charges one admission against the bucket. Caller
// holds t.mu and has seen rateRoomLocked return true this round.
func (t *tenant) takeTokenLocked() {
	if t.sess.Limits().RatePerSec > 0 {
		t.tokens--
	}
}

// maxAdvisoryPause caps any single suggested pause so a stale advisory
// cannot park a well-behaved client for long.
const maxAdvisoryPause = time.Second

// advisoryLocked builds the tenant's backpressure advisory, or nil when
// the tenant needs none (not rate-limited, or no token deficit). The
// pause is how long the token bucket needs to cover the current backlog.
// Queue fill alone asks for no pause: a pipelined client fills its queue
// by design, and its launch window — not a sleep — is what stops it
// there. Caller holds t.mu.
func (t *tenant) advisoryLocked(qcap int, now time.Time) *transport.Backpressure {
	lim := t.sess.Limits()
	if lim.RatePerSec <= 0 {
		return nil
	}
	// Refill first so the deficit reflects this instant.
	t.rateRoomLocked(now)
	pause := time.Duration((float64(t.queued) - t.tokens) / lim.RatePerSec * float64(time.Second))
	if pause <= 0 {
		return nil
	}
	if pause > maxAdvisoryPause {
		pause = maxAdvisoryPause
	}
	return &transport.Backpressure{Queued: t.queued, QueueCap: qcap, Pause: pause}
}

// dropLocked discards one queued launch. Caller holds t.mu.
func (t *tenant) dropLocked() {
	t.queued--
	t.shard.backlog.Add(-1)
	t.dropped++
	if t.queued == 0 {
		t.flushed.Broadcast()
	}
}

// flush blocks until every queued launch has been handed to the
// controller, then reports the session's sticky error — the first failure
// of one of its launches, which poisons it — if any. Sync ops
// call it first so each session observes its own program order. A
// gateway shutting down stops draining, so flush gives up then (Close
// broadcasts flushed after closing done).
func (t *tenant) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.queued > 0 {
		select {
		case <-t.done:
			return errShutDown
		default:
		}
		t.flushed.Wait()
	}
	return t.sess.Err()
}

// capRoomLocked reports whether the tenant is under its in-flight cap,
// which counts the session's launches not yet resolved.
func (t *tenant) capRoomLocked() bool {
	cap := t.sess.Limits().MaxInflightCEs
	return cap <= 0 || t.sess.Inflight() < cap
}

// syncOp runs one synchronous operation; the tenant's queue has flushed.
func (t *tenant) syncOp(req *transport.SessionRequest, resp *transport.SessionResponse) {
	var err error
	switch req.Kind {
	case transport.SessNewArray:
		resp.Array, err = t.sess.NewArray(req.Elem, req.Len)
	case transport.SessHostWrite:
		_, err = t.sess.HostWrite(req.Array, req.Data)
	case transport.SessHostRead:
		resp.Data, _, err = t.sess.HostRead(req.Array)
	case transport.SessFree:
		err = t.sess.Free(req.Array)
	case transport.SessBuildKernel:
		def, berr := t.sess.BuildKernel(req.Src, req.Signature)
		if err = berr; err == nil {
			resp.Name = def.Name
		}
	case transport.SessElapsed:
		resp.Elapsed = int64(t.sess.Elapsed())
		// A launch that failed at dispatch failed during that wait, after
		// flush sampled the sticky error.
		err = t.sess.Err()
	}
	resp.SetErr(err)
}
