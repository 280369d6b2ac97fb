// The dispatch engine (DESIGN.md §5.1, "The dispatch engine").
//
// Every kernel CE takes one path. Submit validates it and parks it in the
// window (window.go); a full window — or a synchronization point — is
// admitted as a whole by flushWindowLocked on the submitter's goroutine:
// DAG insertion, the policy decision and the membership prediction, the
// timed section the paper's Figure 9 measures, which never blocks on data
// movement. The admitted window is a jobBatch, and batches are worked
// through strictly first in, first out, one job at a time (runBatch):
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
// virtual times — therefore do not depend on who works through the FIFO;
// TestPipelineMatchesSerial checks that over random DAGs and policies.
//
// Who works through it is decided by the call, not by an option. A caller
// that is about to wait for its window — Launch, and the flush a
// synchronizing method makes (drainLocked) — works through the whole of it
// on its own goroutine while the dispatcher goroutine is idle (no window
// queued or being worked through, nothing to redo), so the window has run
// when flushWindowLocked returns. A caller that does not wait — Submit,
// SubmitTagged, FlushWindow — starts the longest startable prefix from its
// goroutine and puts it on the wire; the first job that would have to wait
// for anything goes to the dispatcher goroutine with everything behind it.
// While the dispatcher has work every later window queues behind it,
// whoever admitted it. The work lock keeps one goroutine at a time working
// through the FIFO, and so one starter (AsyncLauncher's rule).
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
// launches one worker may have started and unanswered, and how many windows
// the FIFO holds before a submitter waits.
const defaultPipelineDepth = 64

// job is one scheduled CE traveling through the dispatch stage.
type job struct {
	s   *scheduled
	seq uint64
	p   *Pending
	// followers are the Pendings of CEs the window optimizer fused into
	// this one; they resolve with the same end time and error.
	followers []*Pending
	// b is the window the job arrived in.
	b *jobBatch
}

// finish resolves the job's Pending and every follower.
func (j *job) finish(end sim.VirtualTime, err error) {
	j.p.resolve(end, err)
	for _, f := range j.followers {
		f.resolve(end, err)
	}
}

// jobBatch is one admitted window on its way through the FIFO. scheds is
// the jobs' backing slab, recycled once the last job of the window has
// resolved — a streamed job's *scheduled lives until its answer arrives,
// past runBatch's loop — and left counts the jobs still unresolved.
type jobBatch struct {
	jobs   []job
	scheds []scheduled
	left   atomic.Int32
	// from is the first job not yet worked through (runBatch): where the
	// dispatcher goroutine takes over from the caller that admitted it.
	from int
	// own is set when the caller that admitted the window works through
	// all of it because it waits for it (enqueueBatch, fail).
	own bool
}

// pipeline is the controller's dispatch engine (see the package comment).
type pipeline struct {
	c *Controller

	// fifo carries admitted windows to the dispatcher goroutine, one channel
	// hand-off per window. wg waits for that goroutine.
	fifo chan *jobBatch
	wg   sync.WaitGroup

	// Streamed launches. al is the fabric's AsyncLauncher, nil when launches
	// take the blocking path only; depth bounds one worker's
	// started-and-unanswered launches. inflight maps every such CE to its
	// worker, flying[w] counts them per worker, redo holds the started jobs
	// that failed — all three guarded by c.mu, and launchDone broadcasts
	// every change on c.cond. wake tells an idle dispatcher that redo is
	// non-empty. unflushed lists the workers with launches still in a write
	// buffer.
	al        AsyncLauncher
	depth     int
	inflight  map[dag.CEID]cluster.NodeID
	flying    map[cluster.NodeID]int
	redo      []*job
	wake      chan struct{}
	unflushed []cluster.NodeID

	// work is held by whoever is working through a window or the redo list:
	// the dispatcher goroutine, or (by try-lock, never waiting) the caller
	// that admitted a window while it works through that window or a prefix
	// of it. It guards unflushed and jobBatch.from. queued counts the
	// windows given to the dispatcher and not yet worked through; handed,
	// all the jobs it was ever given (Controller.DispatcherJobs).
	work   sync.Mutex
	queued atomic.Int32
	handed atomic.Int64

	// mu guards the submission/completion counters.
	mu        sync.Mutex
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
	pl := &pipeline{c: c}
	pl.drainCond = sync.NewCond(&pl.mu)
	if cd, ok := c.fabric.(ConcurrentDispatcher); ok && cd.ConcurrentDispatch() {
		if al, ok := c.fabric.(AsyncLauncher); ok {
			pl.al, pl.depth = al, depth
			pl.inflight = make(map[dag.CEID]cluster.NodeID)
			pl.flying = make(map[cluster.NodeID]int)
			pl.wake = make(chan struct{}, 1)
		}
	}
	// depth windows of backlog before a submitter waits: backpressure on
	// the scheduling stage.
	pl.fifo = make(chan *jobBatch, depth)
	pl.wg.Add(1)
	go pl.batchDispatcher()
	return pl
}

// enqueueBatch puts an admitted window into the FIFO. Jobs arrive with
// their Pendings already made (Submit returned them while the CEs were
// parked); sequence numbers are issued here, in window order. With the
// dispatcher idle the caller works through what it can itself (see the
// package comment): all of the window when it blocks on it, which has then
// run when this returns, and otherwise the prefix it can start at once.
func (pl *pipeline) enqueueBatch(b *jobBatch, blocking bool) {
	pl.mu.Lock()
	for i := range b.jobs {
		b.jobs[i].seq = pl.submitted
		pl.submitted++
	}
	pl.mu.Unlock()
	// Without a launch stream a caller that does not wait could start
	// nothing. queued is read under the lock: a dispatcher that has taken a
	// window off the channel but not the lock yet still counts.
	if (blocking || pl.al != nil) && pl.work.TryLock() {
		if pl.queued.Load() == 0 {
			b.own = blocking
			pl.runBatch(b, blocking)
			if blocking {
				// A started launch that fails is redone here, not by the
				// dispatcher: the caller waits for it.
				pl.quiesce()
			} else {
				pl.flushStarts()
			}
		}
		pl.work.Unlock()
		if b.from == len(b.jobs) {
			return
		}
	}
	pl.queued.Add(1)
	pl.fifo <- b
}

// batchDispatcher is the controller's one dispatcher goroutine: it works
// through the windows in the FIFO, each from the job its caller stopped at,
// and through the redo list when a started launch fails with no window
// queued.
func (pl *pipeline) batchDispatcher() {
	defer pl.wg.Done()
	for {
		select {
		case b, ok := <-pl.fifo:
			if !ok {
				return
			}
			pl.work.Lock()
			pl.handed.Add(int64(len(b.jobs) - b.from))
			pl.runBatch(b, true)
			// No further window queued, so about to sleep: a started launch
			// left in a write buffer would never be answered.
			if pl.queued.Add(-1) == 0 {
				pl.flushStarts()
			}
			pl.work.Unlock()
		case <-pl.wake:
			pl.work.Lock()
			pl.quiesce()
			pl.work.Unlock()
		}
	}
}

// runBatch works through b from b.from on: a job is started when it can
// be and, with wait, dispatched blocking — after everything in flight has
// been answered — when it cannot. Without wait it stops at the first job it
// cannot start at once, and b.from is left there. Caller holds work.
func (pl *pipeline) runBatch(b *jobBatch, wait bool) {
	for ; b.from < len(b.jobs); b.from++ {
		j := &b.jobs[b.from]
		if pl.tryStart(j, wait) {
			continue
		}
		if !wait {
			return
		}
		pl.quiesce()
		pl.runJob(j)
		pl.resolved(j)
	}
}

// resolved accounts one finished job of a window; the last one completes
// the window and recycles its slab.
func (pl *pipeline) resolved(j *job) {
	b := j.b
	if b.left.Add(-1) != 0 {
		return
	}
	pl.mu.Lock()
	pl.completed += uint64(len(b.jobs))
	pl.drainCond.Broadcast()
	pl.mu.Unlock()
	pl.c.putSchedSlab(b.scheds)
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
	c, s := pl.c, j.s
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
// anything that can block — the dispatcher sleeping for the next window,
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
// goroutine. Success commits the CE — no data moved, every replica the
// window predicted counted as an eliminated move, as ensureArgs would —
// and resolves it. Failure, or success behind a failed ancestor (the
// launch ran without its effect), puts the job on the redo list.
func (pl *pipeline) launchDone(j *job, end sim.VirtualTime, err error) {
	c, s := pl.c, j.s
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
		select {
		case pl.wake <- struct{}{}:
		default: // already signalled
		}
		return
	}
	c.commitLocked(s, s.target, ready, end, 0, 0)
	c.mu.Unlock()
	if c.windowed {
		for i, a := range s.inv.Args {
			if a.IsArray && s.upAtSched[i] {
				c.countEliminatedMove(s)
			}
		}
	}
	j.finish(end, nil)
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
// and resolves its Pending and any fusion followers. Everything before it
// in the FIFO has committed or failed: the caller holds work and has
// quiesced.
func (pl *pipeline) runJob(j *job) {
	err := pl.sticky()
	var end = j.p.end
	if err == nil {
		end, err = pl.c.dispatch(j.s)
		if err != nil {
			pl.fail(err, j.b.own)
		}
	} else {
		// A prior CE failed terminally; record this one as failed too so
		// it counts as finished.
		pl.c.commitError(j.s)
	}
	j.finish(end, err)
}

// sticky reads the first terminal error under the controller lock.
func (pl *pipeline) sticky() error {
	pl.c.mu.Lock()
	defer pl.c.mu.Unlock()
	return pl.err
}

// fail records a terminal error. Whether it sticks — fails every CE after
// it, refuses new ones and is what Drain and Close report — is decided
// here and nowhere else: it does unless the failed CE's window is a window
// of one that its own caller works through because it waits for it (own).
// That caller is told and decides what happens next; the controller stays
// usable (overwriting an array after data loss,
// TestChaosUnrecoverableRoot). Anywhere else some caller may already hold
// a Pending this error cannot reach any more.
func (pl *pipeline) fail(err error, own bool) {
	if own && pl.c.optWindow == 1 {
		return
	}
	pl.c.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.c.mu.Unlock()
}

// drain blocks until every submitted CE has dispatched and returns the
// sticky error, if any.
func (pl *pipeline) drain() error {
	pl.mu.Lock()
	target := pl.submitted
	for pl.completed < target {
		pl.drainCond.Wait()
	}
	pl.mu.Unlock()
	return pl.sticky()
}

// close stops the dispatcher goroutine and makes further submissions fail
// (parkLocked). The caller holds subMu and has drained. Idempotent.
func (pl *pipeline) close() {
	if pl.closed {
		return
	}
	pl.closed = true
	close(pl.fifo)
	pl.wg.Wait()
}
