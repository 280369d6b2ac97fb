// The dispatch engine (DESIGN.md §5.1, "The dispatch engine").
//
// Every kernel CE takes one path. Submit and Launch admit it on the
// caller's goroutine (admit.go): DAG insertion, the policy decision and the
// membership prediction, the timed section the paper's Figure 9 measures,
// which never blocks on data movement. The admitted CE is a job in the run
// queue, and jobs are worked through strictly first in, first out (run):
//
//   - a job that streamableLocked accepts is started on its worker's
//     stream (AsyncLauncher: real transports run one worker's launches in
//     start order, the paper's Local-DAG rule carried by the wire) without
//     waiting for the answer to anything before it; its answer commits it
//     from the fabric's reader goroutine (launchDone);
//   - any other job is dispatched blocking by runJob — the only caller of
//     Controller.dispatch — after quiesce: every started launch has been
//     answered, and every one that failed has been redone through the
//     blocking dispatch in submission order, so retry, failover and lineage
//     recovery live in one place.
//
// FIFO on one goroutine at a time is submission order, so when a job is
// dispatched blocking every earlier CE has committed or failed: dispatch
// waits for nothing, fabric operations reach a virtual-time fabric
// (LocalFabric mutates shared NIC timelines in call order) in submission
// order, and the membership prediction (predictMembership) gives every
// placement decision the data-location view it would have had had each CE
// run before the next was admitted. Schedules — placements, transfers,
// virtual times — therefore do not depend on who works through the run
// queue; TestPipelineMatchesSerial checks that over random DAGs and
// policies.
//
// Who works through it follows one rule: whoever waits works through the
// run. On a fabric without a launch stream (no AsyncLauncher: LocalFabric,
// the wrapping fabrics) nothing overlaps a blocking dispatch on the caller,
// so Submit only admits and queues, and the queued CEs run on the
// goroutine that needs them done: a Launch (its own CE is the last of the
// run), a Submit that finds PipelineDepth jobs queued, a drain — so every
// synchronizing method — and Pending.Wait. An observer that does not block
// — Pending.Done, Pending.OnDone — wakes the dispatcher goroutine, which
// works through the whole run; ControllerSession and the gateway progress
// that way. On a streaming fabric the network overlaps what the caller
// cannot: a Submit starts its CE from its own goroutine when the run queue
// is empty and the CE can start at once, and a Launch runs its CE there
// while nothing is queued; anything else queues, and the dispatcher
// goroutine, woken on the queue's empty → non-empty edge, works it
// through. The work lock keeps one goroutine at a time working through the
// run, and so one starter (AsyncLauncher's rule).
package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/sim"
)

// ConcurrentDispatcher is implemented by fabrics whose operations are
// safe to issue from multiple goroutines at once (real transports doing
// wall-clock I/O). Virtual-time fabrics must not implement it: their
// shared timelines make operation order observable.
type ConcurrentDispatcher interface {
	ConcurrentDispatch() bool
}

// defaultPipelineDepth is Options.PipelineDepth's zero value: how many
// launches one worker may have started and unanswered, and how many CEs the
// run queue holds before a submitter works through them (no launch stream)
// or waits for the dispatcher (streaming).
const defaultPipelineDepth = 64

// job is one admitted CE traveling through the dispatch stage. It is
// recycled (putJob) once two holds are released: the CE has resolved — a
// streamed job lives until its answer arrives, past run — and whoever
// worked through it is done with it.
type job struct {
	s     scheduled
	seq   uint64
	p     *Pending
	holds atomic.Int32
	// own is set when the caller that admitted the job waits for it and
	// works through the run up to it (enqueue).
	own bool
}

// pipeline is the controller's dispatch engine (see the package comment).
type pipeline struct {
	c *Controller

	// wake rouses the dispatcher goroutine: a job queued on a streaming
	// fabric's empty run queue, an observer of a queued CE, or a failed
	// start to redo. quit stops it; wg waits for it.
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	// Streamed launches. al is the fabric's AsyncLauncher, nil when launches
	// take the blocking path only; depth bounds one worker's
	// started-and-unanswered launches and the run queue. inflight maps
	// every started CE to its worker, flying[w] counts them per worker, redo
	// holds the started jobs that failed — all three guarded by c.mu, and
	// launchDone broadcasts every change on c.cond. unflushed lists the
	// workers with launches still in a write buffer.
	al        AsyncLauncher
	depth     int
	inflight  map[dag.CEID]cluster.NodeID
	flying    map[cluster.NodeID]int
	redo      []*job
	unflushed []cluster.NodeID

	// work is held by whoever is working through the run queue or the redo
	// list: the dispatcher goroutine, a caller that waits (see the package
	// comment) or, by try-lock, never waiting, a streaming submitter
	// starting its own CE. It guards unflushed. handed counts the jobs the
	// dispatcher goroutine ever worked through (Controller.DispatcherJobs).
	work   sync.Mutex
	handed atomic.Int64

	// mu guards the run queue and the submission/completion counters. The
	// run queue is a ring of depth slots: qLen jobs from q[qHead] on, in
	// submission order. room wakes a streaming submitter waiting for a
	// slot.
	mu        sync.Mutex
	q         []*job
	qHead     int
	qLen      int
	room      *sync.Cond
	drainCond *sync.Cond
	submitted uint64
	completed uint64
	// closed is set by Controller.Close; guarded by subMu.
	closed bool

	// err is the sticky first terminal error (see fail); guarded by c.mu.
	err error
}

func newPipeline(c *Controller, depth int) *pipeline {
	if depth <= 0 {
		depth = defaultPipelineDepth
	}
	pl := &pipeline{c: c, depth: depth, q: make([]*job, depth)}
	pl.room = sync.NewCond(&pl.mu)
	pl.drainCond = sync.NewCond(&pl.mu)
	if cd, ok := c.fabric.(ConcurrentDispatcher); ok && cd.ConcurrentDispatch() {
		if al, ok := c.fabric.(AsyncLauncher); ok {
			pl.al = al
			pl.inflight = make(map[dag.CEID]cluster.NodeID)
			pl.flying = make(map[cluster.NodeID]int)
		}
	}
	pl.wake = make(chan struct{}, 1)
	pl.quit = make(chan struct{})
	pl.wg.Add(1)
	go pl.dispatchLoop()
	return pl
}

// enqueue numbers an admitted job and puts it in the run queue, or has the
// caller work it (see the package comment). With blocking the caller waits
// for the job, which has then run when this returns on a fabric without a
// launch stream, and on a streaming one if nothing was queued before it.
func (pl *pipeline) enqueue(j *job, blocking bool) {
	pl.mu.Lock()
	j.seq = pl.submitted
	pl.submitted++
	if pl.al == nil {
		j.own = blocking
		j.p.pl = pl
		full := pl.pushLocked(j) == pl.depth
		pl.mu.Unlock()
		if blocking || full {
			pl.workThrough(nil)
		}
		return
	}
	pl.mu.Unlock()
	// On a launch stream a caller that does not wait starts its CE itself
	// when it can start at once; one that waits runs it to completion. Only
	// with the dispatcher idle: work free and nothing queued before it.
	if pl.work.TryLock() {
		ran := false
		if pl.queueLen() == 0 {
			j.own = blocking
			ran = pl.run(j, blocking)
			if blocking {
				// A started launch that fails is redone here, not by the
				// dispatcher: the caller waits for it.
				pl.quiesce()
			} else {
				pl.flushStarts()
			}
		}
		pl.work.Unlock()
		if ran {
			pl.release(j)
			return
		}
	}
	pl.mu.Lock()
	n := pl.pushLocked(j)
	pl.mu.Unlock()
	if n == 1 {
		pl.kick()
	}
}

// pushLocked appends j to the run queue — on a streaming fabric after
// waiting for a free slot, backpressure on the scheduling stage — and
// reports how many jobs the queue then holds. Without a launch stream the
// queue is never full here: the Submit that fills it works it through.
// Caller holds mu.
func (pl *pipeline) pushLocked(j *job) int {
	for pl.qLen == len(pl.q) {
		pl.room.Wait()
	}
	pl.q[(pl.qHead+pl.qLen)%len(pl.q)] = j
	pl.qLen++
	return pl.qLen
}

// pop takes the oldest job off the run queue, nil when it is empty.
func (pl *pipeline) pop() *job {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.qLen == 0 {
		return nil
	}
	j := pl.q[pl.qHead]
	pl.q[pl.qHead] = nil
	pl.qHead = (pl.qHead + 1) % len(pl.q)
	if pl.qLen == len(pl.q) {
		pl.room.Broadcast()
	}
	pl.qLen--
	return j
}

// queueLen reports how many jobs the run queue holds.
func (pl *pipeline) queueLen() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.qLen
}

// kick wakes the dispatcher goroutine; a wake already pending covers this
// one.
func (pl *pipeline) kick() {
	select {
	case pl.wake <- struct{}{}:
	default:
	}
}

// workThrough works through the run queue on the caller's goroutine (see
// runQueued).
func (pl *pipeline) workThrough(until *Pending) {
	pl.work.Lock()
	pl.runQueued(until, false)
	pl.work.Unlock()
}

// runQueued works through the run queue in FIFO order until it is empty
// or, with until, until that CE has resolved. Caller holds work.
func (pl *pipeline) runQueued(until *Pending, dispatcher bool) {
	for until == nil || !until.isResolved() {
		j := pl.pop()
		if j == nil {
			return
		}
		if dispatcher {
			pl.handed.Add(1)
		}
		pl.run(j, true)
		pl.release(j)
	}
}

// dispatchLoop is the controller's one dispatcher goroutine. Each wake it
// works through the whole run queue, then redoes failed starts or, with
// none, flushes what it started: about to sleep, a launch left in a write
// buffer would never be answered.
func (pl *pipeline) dispatchLoop() {
	defer pl.wg.Done()
	for {
		select {
		case <-pl.quit:
			return
		case <-pl.wake:
		}
		pl.work.Lock()
		pl.runQueued(nil, true)
		if pl.al != nil {
			pl.c.mu.Lock()
			redo := len(pl.redo) > 0
			pl.c.mu.Unlock()
			if redo {
				pl.quiesce()
			} else {
				pl.flushStarts()
			}
		}
		pl.work.Unlock()
	}
}

// run works through j: it is started when it can be and, with wait,
// dispatched blocking — after everything in flight has been answered —
// when it cannot. Without wait, a job that cannot start at once is left
// alone and run reports false. Caller holds work.
func (pl *pipeline) run(j *job, wait bool) bool {
	if pl.tryStart(j, wait) {
		return true
	}
	if !wait {
		return false
	}
	pl.quiesce()
	pl.runJob(j)
	pl.resolved(j)
	return true
}

// resolved accounts one finished job and releases its hold on it.
func (pl *pipeline) resolved(j *job) {
	pl.mu.Lock()
	pl.completed++
	pl.drainCond.Broadcast()
	pl.mu.Unlock()
	pl.release(j)
}

// release drops one of j's two holds; the second recycles it.
func (pl *pipeline) release(j *job) {
	if j.holds.Add(-1) == 0 {
		putJob(j)
	}
}

// tryStart starts j on its target's stream if streamableLocked allows it
// and reports whether it did; false sends the caller down the blocking
// path. With wait, a target already at the pipeline depth is waited for
// (flushed first — the answers being waited for may still be in the write
// buffer); without, it is one more reason not to start. Caller holds work.
func (pl *pipeline) tryStart(j *job, wait bool) bool {
	if pl.al == nil {
		return false
	}
	c, s := pl.c, &j.s
	c.mu.Lock()
	for {
		if pl.err != nil || len(pl.redo) > 0 || !c.streamableLocked(s, pl.inflight) {
			c.mu.Unlock()
			return false
		}
		if pl.flying[s.target] < pl.depth {
			break
		}
		c.mu.Unlock()
		if !wait {
			return false
		}
		pl.flushStarts()
		c.mu.Lock()
		for pl.flying[s.target] >= pl.depth && len(pl.redo) == 0 {
			c.cond.Wait()
		}
	}
	pl.inflight[s.ce.ID] = s.target
	pl.flying[s.target]++
	c.mu.Unlock()
	if len(pl.unflushed) == 0 || pl.unflushed[len(pl.unflushed)-1] != s.target {
		pl.unflushed = append(pl.unflushed, s.target)
	}
	err := pl.al.StartLaunch(s.target, s.inv, 0, func(end sim.VirtualTime, err error) {
		pl.launchDone(j, end, err)
	})
	if err != nil {
		pl.launchDone(j, 0, err)
	}
	return true
}

// flushStarts puts every started launch on the wire. It runs before
// anything that can block — the dispatcher sleeping for the next job,
// waiting out the depth bound, quiescing — and when a submitter is done
// starting. Caller holds work.
func (pl *pipeline) flushStarts() {
	// A worker is listed once per run of consecutive starts; flushing an
	// empty buffer is a no-op.
	for _, w := range pl.unflushed {
		pl.al.FlushLaunches(w)
	}
	pl.unflushed = pl.unflushed[:0]
}

// launchDone receives a started launch's answer on the fabric's reader
// goroutine. Success commits the CE — no data moved — and resolves it. Failure, or success behind a failed ancestor (the
// launch ran without its effect), puts the job on the redo list.
func (pl *pipeline) launchDone(j *job, end sim.VirtualTime, err error) {
	c, s := pl.c, &j.s
	c.mu.Lock()
	delete(pl.inflight, s.ce.ID)
	pl.flying[s.target]--
	c.cond.Broadcast()
	var ready sim.VirtualTime
	ok := err == nil
	if ok {
		ready, ok = c.streamedReadyLocked(s)
	}
	if !ok {
		pl.redo = append(pl.redo, j)
		c.mu.Unlock()
		pl.kick()
		return
	}
	c.commitLocked(s, s.target, ready, end, 0, 0)
	c.mu.Unlock()
	j.p.resolve(end, nil)
	pl.resolved(j)
}

// quiesce flushes, waits until nothing is in flight, and runs every failed
// start through the blocking dispatch in submission order (a broken
// channel fails everything behind the first failure, so that is also the
// order the launches would have run in). It returns with nothing in
// flight and the redo list empty — the state the blocking path needs.
func (pl *pipeline) quiesce() {
	if pl.al == nil {
		return
	}
	c := pl.c
	for {
		pl.flushStarts()
		c.mu.Lock()
		for len(pl.inflight) > 0 {
			c.cond.Wait()
		}
		redo := pl.redo
		pl.redo = nil
		c.mu.Unlock()
		if len(redo) == 0 {
			return
		}
		sort.Slice(redo, func(a, b int) bool { return redo[a].seq < redo[b].seq })
		for _, j := range redo {
			pl.runJob(j)
			pl.resolved(j)
		}
	}
}

// runJob dispatches one CE blocking (or fails it with the sticky error)
// and resolves its Pending. Everything before it in the FIFO has committed
// or failed: the caller holds work and has quiesced.
func (pl *pipeline) runJob(j *job) {
	err := pl.sticky()
	var end = j.p.end
	if err == nil {
		end, err = pl.c.dispatch(&j.s)
		if err != nil {
			pl.fail(err, j.own)
		}
	} else {
		// A prior CE failed terminally; record this one as failed too so
		// it counts as finished.
		pl.c.commitError(&j.s)
	}
	j.p.resolve(end, err)
}

// sticky reads the first terminal error under the controller lock.
func (pl *pipeline) sticky() error {
	pl.c.mu.Lock()
	defer pl.c.mu.Unlock()
	return pl.err
}

// fail records a terminal error. Whether it sticks — fails every CE after
// it, refuses new ones and is what Drain and Close report — is decided
// here and nowhere else: it does unless the failed CE is one that its own
// caller works through because it waits for it (own). That caller is told and decides what happens next; the controller stays
// usable (overwriting an array after data loss,
// TestChaosUnrecoverableRoot). Anywhere else some caller may already hold
// a Pending this error cannot reach any more.
func (pl *pipeline) fail(err error, own bool) {
	if own {
		return
	}
	pl.c.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.c.mu.Unlock()
}

// drain blocks until every submitted CE has dispatched and returns the
// sticky error, if any. Without a launch stream it works through the run
// itself.
func (pl *pipeline) drain() error {
	if pl.al == nil {
		pl.workThrough(nil)
	}
	pl.mu.Lock()
	target := pl.submitted
	for pl.completed < target {
		pl.drainCond.Wait()
	}
	pl.mu.Unlock()
	return pl.sticky()
}

// close stops the dispatcher goroutine and makes further submissions fail
// (admitLocked). The caller holds subMu and has drained. Idempotent.
func (pl *pipeline) close() {
	if pl.closed {
		return
	}
	pl.closed = true
	close(pl.quit)
	pl.wg.Wait()
}
