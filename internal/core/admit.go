// Admission (DESIGN.md §5.6): every kernel CE is admitted by itself, as
// the paper's Algorithm 1 admits it. admitLocked validates the invocation,
// inserts it into the Global DAG, asks the policy for a worker, applies
// lineage and the membership prediction — the scheduling stage, the timed
// section of the paper's Figure 9 — and hands the CE to the dispatch engine
// (pipeline.go) as one recycled job.
package core

import (
	"fmt"
	"sync"
	"time"
)

// OptStats is what the lookahead window's optimizer counters used to
// report.
//
// Deprecated: every field is always zero. CEs are admitted one at a time,
// and the fabrics already memoize the per-argument ensure that move
// elimination skipped.
type OptStats struct {
	FusedCEs           int64
	CoalescedTransfers int64
	EliminatedMoves    int64
}

// OptStats reports zeros.
//
// Deprecated: nothing is counted any more (see OptStats).
func (c *Controller) OptStats() OptStats { return OptStats{} }

// drainLocked waits until every submitted CE has dispatched. Caller holds
// subMu.
func (c *Controller) drainLocked() error {
	defer c.sweepLocked()
	return c.pipe.drain()
}

// admitLocked validates and admits one CE and hands it to the dispatch
// engine. blocking says the caller waits for the CE, and so works through
// it itself when it can (pipeline.go). Caller holds subMu. The returned
// error is the sticky error or an admission failure; dispatch errors
// surface on the Pending and Drain.
func (c *Controller) admitLocked(inv Invocation, blocking bool) (*Pending, error) {
	if c.pipe.closed {
		return nil, fmt.Errorf("core: controller closed")
	}
	if err := c.pipe.sticky(); err != nil {
		return nil, err
	}
	accs, err := c.validate(inv)
	if err != nil {
		return nil, err
	}
	// The one allocation the admission of a CE makes for its caller.
	pend := new(Pending)

	c.mu.Lock()
	err = c.pipe.err
	if err == nil && len(c.aliveWorkers()) == 0 {
		err = fmt.Errorf("core: no workers available")
	}
	if err != nil {
		c.mu.Unlock()
		c.pipe.fail(err, blocking) // no-op when err is the sticky error already
		pend.resolve(0, err)
		return pend, err
	}

	start := time.Now()
	j := getJob()
	s := &j.s
	s.ce, s.ancestors = c.admitCE(inv, accs)
	s.inv, s.accs = inv, accs
	s.target = c.pol.Assign(c.buildRequest(s.ce, inv.Args, accs))
	c.recordLineage(s)
	c.predictMembership(s)
	s.schedDur = time.Since(start)
	c.schedTime += s.schedDur
	c.schedCEs++
	c.mu.Unlock()

	j.p = pend
	c.pipe.enqueue(j, blocking)
	return pend, nil
}

// freeJobs recycles admitted jobs with their scheduled records. It is
// shared by every controller, so short-lived controllers — a sweep runs one
// per cell — reuse each other's jobs too. It keeps at most maxFreeJobs:
// two controllers' worth of outstanding jobs at the default depth (a full
// FIFO, a worker's started launches, the job its dispatcher works through
// and the one its submitter holds), so a controller's steady state never
// runs the list dry. Unlike a sync.Pool it keeps what it is given — a pool
// drops its contents at every collection, and a random share of them under
// the race detector — so a warmed controller's admission allocates the
// same under -race as without (TestSubmitAllocBudget).
var freeJobs struct {
	sync.Mutex
	list []*job
}

const maxFreeJobs = 4 * pipelineDepth

// getJob returns a zeroed job (whose scheduled record's scratch slices
// keep their capacity) with both holds taken.
func getJob() *job {
	var j *job
	freeJobs.Lock()
	if k := len(freeJobs.list); k > 0 {
		j = freeJobs.list[k-1]
		freeJobs.list[k-1] = nil
		freeJobs.list = freeJobs.list[:k-1]
	}
	freeJobs.Unlock()
	if j == nil {
		j = new(job)
	}
	j.holds.Store(2)
	return j
}

// putJob resets a finished job and parks it for reuse. It keeps the
// scheduled record's scratch slices' capacity while zeroing every other
// field, so a parked job pins no CE, invocation, Pending or array and the
// next admission starts from a clean record.
func putJob(j *job) {
	sc := &j.s
	arrs := sc.arrs[:0]
	clear(arrs[:cap(arrs)]) // no retained array pointers
	j.s = scheduled{outVers: sc.outVers[:0], arrs: arrs}
	j.seq, j.p, j.own = 0, nil, false
	freeJobs.Lock()
	if len(freeJobs.list) < maxFreeJobs {
		freeJobs.list = append(freeJobs.list, j)
	}
	freeJobs.Unlock()
}
