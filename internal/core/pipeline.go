// Pipelined CE dispatch.
//
// With Options.Pipeline the controller's per-CE work splits in two:
//
//   - The scheduling stage (Submit) runs on the caller's goroutine: DAG
//     insertion, the policy decision, and the membership prediction. This
//     is the timed section the paper's Figure 9 measures, and it never
//     blocks on data movement.
//   - The dispatch stage runs on per-worker dispatcher goroutines fed by
//     bounded queues: waiting for DAG ancestors, issuing EnsureArray /
//     MoveArray / Launch, and committing results to the authoritative
//     registry.
//
// Ordering is enforced by dependencies, not by serializing the stages:
// a dispatcher blocks until (a) every DAG ancestor of its CE has
// committed (waitDeps) and (b) every array copy the scheduler predicted
// for its target has been published by the producing CE (waitLocalCopy).
// Both waits are keyed to earlier-submitted CEs only, so the
// submission order is a topological order of the wait graph and no
// deadlock is possible.
//
// Virtual-time determinism: fabrics that simulate time (LocalFabric)
// mutate shared NIC timelines in call order, so bit-identical virtual
// times additionally require fabric operations to be issued in
// submission order. The pipeline therefore runs a ticket sequencer —
// dispatcher i may only touch the fabric when every earlier ticket has
// finished — unless the fabric declares itself safe for concurrent
// dispatch via ConcurrentDispatcher. Scheduling still overlaps dispatch
// either way; the sequencer only orders the dispatch stage itself, and
// subsumes the two dependency waits (an ancestor always holds an
// earlier ticket). The scheduler's membership prediction
// (predictMembership) guarantees every placement decision sees exactly
// the data-location view the serial controller would have had, so the
// pipelined schedule — placements, transfers, and virtual times — is
// identical to the serial one. TestPipelineMatchesSerial checks this
// property over random DAGs, seeds, and policies.
//
// Streamed launches: a concurrent-dispatch fabric that also offers
// AsyncLauncher (the TCP transport) executes one worker's launches in the
// order they were started, which is the paper's Local-DAG rule carried by
// the wire. The batch dispatcher uses it: a CE that streamableLocked
// accepts is started without waiting for the answer to anything before it,
// and its answer commits it from the fabric's reader goroutine; any other
// CE takes the blocking dispatch, after everything in flight has been
// answered. A started launch that fails is not handled where it failed:
// it goes on a redo list, the dispatcher stops starting, waits until
// nothing is in flight and runs the failed CEs through the blocking
// dispatch in submission order — retry, failover and lineage recovery all
// stay there. Virtual-time fabrics never take this path.
//
// Who starts a launch: whoever flushes the window, when it can. With the
// dispatcher idle — no window queued or being worked through, nothing to
// redo — enqueueBatch starts the longest startable prefix on the
// submitter's goroutine and puts it on the wire; the first job that would
// have to wait for anything goes to the dispatcher with everything behind
// it, and while the dispatcher has work every later window queues behind
// it. The work lock keeps that one starter at a time (AsyncLauncher's rule).
package core

import (
	"fmt"
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

// defaultPipelineDepth bounds each worker's dispatch queue when
// Options.PipelineDepth is zero.
const defaultPipelineDepth = 64

// job is one scheduled CE traveling through the dispatch stage.
type job struct {
	s   *scheduled
	seq uint64
	p   *Pending
	// followers are the Pendings of CEs the window optimizer fused into
	// this one; they resolve with the same end time and error.
	followers []*Pending
	// b is the window the job arrived in (nil on the per-worker queues).
	b *jobBatch
}

// finish resolves the job's Pending and every follower.
func (j *job) finish(end sim.VirtualTime, err error) {
	j.p.resolve(end, err)
	for _, f := range j.followers {
		f.resolve(end, err)
	}
}

// jobBatch is one flushed optimizer window in flight to the batch
// dispatcher. scheds is the jobs' backing slab, recycled once the last
// job of the window has resolved — a streamed job's *scheduled lives until
// its answer arrives, past the dispatcher's loop — and left counts the
// jobs still unresolved.
type jobBatch struct {
	jobs   []job
	scheds []scheduled
	left   atomic.Int32
	// from is the first job left to the batch dispatcher; the submitter
	// started the ones before it (enqueueBatch).
	from int
}

// pipeline is the dispatch engine behind Options.Pipeline.
type pipeline struct {
	c         *Controller
	queues    map[cluster.NodeID]chan *job
	wg        sync.WaitGroup
	sequenced bool

	// batch feeds whole optimizer windows to a single dispatcher
	// goroutine: one channel handoff per window instead of one ticket
	// hand-over per CE, which is where the pipelined submit path loses
	// against serial on scheduler-bound streams. Jobs inside a batch run
	// FIFO on that one goroutine; the ticket sequencer still orders them
	// against any per-worker queue traffic.
	batch chan *jobBatch

	// Streamed launches (see the package comment). al is the fabric's
	// AsyncLauncher, nil when launches take the blocking path only; depth
	// bounds one worker's started-and-unanswered launches. inflight maps
	// every such CE to its worker, flying[w] counts them per worker, redo
	// holds the started jobs that failed — all three guarded by c.mu, and
	// changes are broadcast on c.cond. wake tells an idle dispatcher that
	// redo is non-empty. unflushed is the dispatcher's own list of workers
	// with launches still in a write buffer.
	al        AsyncLauncher
	depth     int
	inflight  map[dag.CEID]cluster.NodeID
	flying    map[cluster.NodeID]int
	redo      []*job
	wake      chan struct{}
	unflushed []cluster.NodeID

	// work is held by whoever is starting or dispatching window jobs: the
	// batch dispatcher while it works through a window or the redo list, a
	// submitter (by try-lock, never waiting) while it starts a window's
	// prefix itself. It guards unflushed. queued counts the windows given
	// to the dispatcher and not yet worked through; handed, all the jobs it
	// was ever given (Controller.DispatcherJobs).
	work   sync.Mutex
	queued atomic.Int32
	handed atomic.Int64

	// mu guards the submission/completion counters and closed flag.
	mu        sync.Mutex
	drainCond *sync.Cond
	submitted uint64
	completed uint64
	closed    bool

	// err is the sticky first terminal error; guarded by c.mu so the
	// controller's wait loops can check it under their own lock.
	err error

	// ticket sequencer (virtual-time fabrics only).
	seqMu   sync.Mutex
	seqCond *sync.Cond
	next    uint64
}

func newPipeline(c *Controller, depth int) *pipeline {
	if depth <= 0 {
		depth = defaultPipelineDepth
	}
	pl := &pipeline{
		c:         c,
		queues:    make(map[cluster.NodeID]chan *job),
		sequenced: true,
	}
	if cd, ok := c.fabric.(ConcurrentDispatcher); ok && cd.ConcurrentDispatch() {
		pl.sequenced = false
		if al, ok := c.fabric.(AsyncLauncher); ok {
			pl.al, pl.depth = al, depth
			pl.inflight = make(map[dag.CEID]cluster.NodeID)
			pl.flying = make(map[cluster.NodeID]int)
			pl.wake = make(chan struct{}, 1)
		}
	}
	pl.drainCond = sync.NewCond(&pl.mu)
	pl.seqCond = sync.NewCond(&pl.seqMu)
	for _, w := range c.fabric.Workers() {
		q := make(chan *job, depth)
		pl.queues[w] = q
		pl.wg.Add(1)
		go pl.dispatcher(q)
	}
	pl.batch = make(chan *jobBatch, depth)
	pl.wg.Add(1)
	go pl.batchDispatcher()
	return pl
}

// enqueue hands a scheduled CE to its target's dispatcher, blocking when
// the queue is full (backpressure on the scheduling stage). Tickets are
// issued in call order, which — scheduling methods being single-goroutine
// by contract — is the schedule order.
func (pl *pipeline) enqueue(s *scheduled) (*Pending, error) {
	q, ok := pl.queues[s.target]
	if !ok {
		return nil, fmt.Errorf("core: policy assigned unknown worker %v", s.target)
	}
	j := &job{s: s, p: &Pending{done: make(chan struct{})}}
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return nil, fmt.Errorf("core: controller closed")
	}
	j.seq = pl.submitted
	pl.submitted++
	pl.mu.Unlock()
	q <- j
	return j.p, nil
}

// enqueueBatch hands a flushed optimizer window to the batch dispatcher
// in one operation. Jobs arrive with their Pendings already made (Submit
// returned them while the CEs were parked); tickets are issued here, in
// window order, so the sequencer interleaves the batch correctly with
// any directly enqueued CEs.
func (pl *pipeline) enqueueBatch(b *jobBatch) error {
	if len(b.jobs) == 0 {
		return nil
	}
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return fmt.Errorf("core: controller closed")
	}
	for i := range b.jobs {
		b.jobs[i].seq = pl.submitted
		pl.submitted++
	}
	pl.mu.Unlock()
	// With the dispatcher idle, start what can be started from here (see the
	// package comment). queued is read under the lock: a dispatcher that has
	// taken a window off the channel but not the lock yet still counts.
	if pl.al != nil && pl.work.TryLock() {
		if pl.queued.Load() == 0 {
			for b.from < len(b.jobs) && pl.tryStart(&b.jobs[b.from], false) {
				b.from++
			}
			pl.flushStarts()
		}
		pl.work.Unlock()
		if b.from == len(b.jobs) {
			return nil
		}
	}
	pl.queued.Add(1)
	pl.batch <- b
	return nil
}

func (pl *pipeline) dispatcher(q chan *job) {
	defer pl.wg.Done()
	for j := range q {
		if pl.sequenced {
			pl.waitTurn(j.seq)
		}
		pl.runJob(j)
		if pl.sequenced {
			pl.advance()
		}
		pl.mu.Lock()
		pl.completed++
		pl.drainCond.Broadcast()
		pl.mu.Unlock()
	}
}

// batchDispatcher drains whole optimizer windows, each from the job its
// submitter stopped at. The jobs of one batch carry consecutive tickets,
// so in sequenced mode waitTurn degenerates to a cheap check after the
// first job. On a streaming fabric a job is started when it can be and
// dispatched blocking — after everything in flight has been answered —
// when it cannot.
func (pl *pipeline) batchDispatcher() {
	defer pl.wg.Done()
	for {
		select {
		case b, ok := <-pl.batch:
			if !ok {
				return
			}
			pl.work.Lock()
			pl.handed.Add(int64(len(b.jobs) - b.from))
			for i := b.from; i < len(b.jobs); i++ {
				j := &b.jobs[i]
				if pl.sequenced {
					pl.waitTurn(j.seq)
				}
				if !pl.tryStart(j, true) {
					pl.quiesce()
					pl.runJob(j)
					pl.resolved(j)
				}
				if pl.sequenced {
					pl.advance()
				}
			}
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
// and reports whether it did; false sends the dispatcher down the blocking
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
// anything the dispatcher does that can block — sleeping for the next
// window, waiting out the depth bound, quiescing — and when a submitter is
// done starting. Caller holds work.
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
	var ready sim.VirtualTime
	ok := err == nil
	if ok {
		ready, ok = c.streamedReadyLocked(s)
	}
	if !ok {
		pl.redo = append(pl.redo, j)
		c.cond.Broadcast()
		c.mu.Unlock()
		select {
		case pl.wake <- struct{}{}:
		default: // already signalled
		}
		return
	}
	c.commitLocked(s, s.target, ready, end, 0, 0)
	c.mu.Unlock()
	for i, a := range s.inv.Args {
		if a.IsArray && s.upAtSched[i] {
			c.countEliminatedMove(s)
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

// runJob dispatches one CE (or records the sticky failure) and resolves
// its Pending and any fusion followers.
func (pl *pipeline) runJob(j *job) {
	err := pl.sticky()
	var end = j.p.end
	if err == nil {
		end, err = pl.c.dispatch(j.s)
		if err != nil {
			pl.fail(err)
		}
	} else {
		// A prior CE failed terminally; record this one as failed
		// too so dependents stop waiting on it.
		pl.c.commitError(j.s, err)
	}
	j.finish(end, err)
}

// sticky reads the first terminal error under the controller lock.
func (pl *pipeline) sticky() error {
	pl.c.mu.Lock()
	defer pl.c.mu.Unlock()
	return pl.err
}

// fail records the first terminal error and wakes every wait loop.
func (pl *pipeline) fail(err error) {
	pl.c.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.c.cond.Broadcast()
	pl.c.mu.Unlock()
}

// waitTurn blocks until every earlier ticket has finished dispatching.
func (pl *pipeline) waitTurn(seq uint64) {
	pl.seqMu.Lock()
	for pl.next != seq {
		pl.seqCond.Wait()
	}
	pl.seqMu.Unlock()
}

func (pl *pipeline) advance() {
	pl.seqMu.Lock()
	pl.next++
	pl.seqCond.Broadcast()
	pl.seqMu.Unlock()
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

// close drains, stops the dispatchers, and makes further submissions
// fail. Idempotent.
func (pl *pipeline) close() error {
	err := pl.drain()
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return err
	}
	pl.closed = true
	pl.mu.Unlock()
	for _, q := range pl.queues {
		close(q)
	}
	close(pl.batch)
	pl.wg.Wait()
	return err
}
