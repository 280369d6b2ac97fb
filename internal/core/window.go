// The window (DESIGN.md §5.6): where every kernel CE waits to be admitted.
//
// Submit validates the invocation and parks it; when the window fills (or
// a synchronization point flushes it) the whole batch is admitted by
// flushWindowLocked — the one scheduling stage — and handed to the dispatch
// engine (pipeline.go). The window holds max(1, Options.OptimizeWindow)
// CEs. With Options.OptimizeWindow > 0 two optimizer passes act on it:
//
//  1. Move elimination: dispatch consults the authoritative replica
//     registry before issuing the per-argument EnsureArray round trip,
//     skipping fabric traffic for replicas the window's lineage already
//     placed.
//  2. Batched placement: every window CE's placement request is built
//     against one frozen membership snapshot, so the per-array
//     transfer-estimate vectors refresh at most once per window instead
//     of once per CE.
//
// A window of one has nothing to batch: phases A–C below are then exactly
// Algorithm 1's per-CE admission, and without Options.OptimizeWindow move
// elimination is off too.
//
// Equivalence to one-by-one admission: the window admits its CEs to the
// DAG unchanged and in submission order before they enter the engine's
// FIFO, so the guarantee of pipeline.go — when a CE is dispatched every
// earlier one has committed or failed — holds for a window as for a single
// CE, and phases A–C apply lineage and membership prediction in window
// order exactly as one-by-one admission would. Only the *policy inputs*
// differ: phase B deliberately evaluates every placement against the
// pre-window membership view (the snapshot), so placements may differ from
// a window of one's — outputs never do, because dispatch re-validates
// every move against authoritative replica state.
//
// Tenancy: placement packs CEs from different tenants onto shared workers
// under whatever policy weights are active — the window is one shared
// batch.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"grout/internal/memmodel"
	"grout/internal/policy"
)

// OptCounters aggregates the optimizer's work. Sessions pass one to
// SubmitTagged for per-tenant accounting; the controller keeps a global
// one. Atomic, because move elimination bumps it on the dispatch side,
// off the submitter's goroutine.
type OptCounters struct {
	// EliminatedMoves counts argument transfers skipped because the
	// target already held a fresh replica the window predicted.
	EliminatedMoves atomic.Int64
}

// OptStats is a point-in-time snapshot of OptCounters.
type OptStats struct {
	// Deprecated: always zero; the window no longer fuses kernels.
	FusedCEs int64
	// Deprecated: always zero; the window no longer coalesces transfers.
	CoalescedTransfers int64
	EliminatedMoves    int64
}

// Snapshot reads the counters.
func (o *OptCounters) Snapshot() OptStats {
	return OptStats{EliminatedMoves: o.EliminatedMoves.Load()}
}

// OptStats reports the controller-wide optimizer counters.
func (c *Controller) OptStats() OptStats { return c.optStats.Snapshot() }

// winEntry is one parked, validated, not-yet-admitted CE. The window holds
// entries by value and keeps its storage across flushes.
type winEntry struct {
	inv  Invocation
	accs []memmodel.Access
	// pend resolves when the CE dispatches; made at park time since
	// Submit returns it before the flush. It is the one allocation the
	// admission of a CE makes for its caller.
	pend *Pending
	// stats is the submitting session's counter block (nil for the
	// direct embedded client).
	stats *OptCounters
}

// SubmitTagged is Submit carrying a per-tenant counter block for the
// optimizer passes.
func (c *Controller) SubmitTagged(inv Invocation, stats *OptCounters) (*Pending, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.parkLocked(inv, stats, false)
}

// FlushWindow forces the parked window to admit and dispatch without
// waiting for it to fill, and returns without waiting for it to run.
// Gateways call this at the end of a drain round so tenant streams shorter
// than the window never stall; Drain, Close, and every synchronizing
// controller method flush implicitly.
func (c *Controller) FlushWindow() error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	defer c.sweepLocked()
	return c.flushWindowLocked(false)
}

// drainLocked flushes the window — its caller waits, so works through it
// itself when it can (pipeline.go) — and waits until every submitted CE has
// dispatched. Caller holds subMu.
func (c *Controller) drainLocked() error {
	defer c.sweepLocked()
	ferr := c.flushWindowLocked(true)
	if err := c.pipe.drain(); err != nil {
		return err
	}
	return ferr
}

// parkLocked validates an invocation and parks it in the window, flushing
// when full — and at once when the caller blocks on the CE. Caller holds
// subMu.
func (c *Controller) parkLocked(inv Invocation, stats *OptCounters, blocking bool) (*Pending, error) {
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
	pend := new(Pending)
	c.win = append(c.win, winEntry{inv: inv, accs: accs, pend: pend, stats: stats})
	if blocking || len(c.win) >= c.optWindow {
		if err := c.flushWindowLocked(blocking); err != nil {
			return pend, err
		}
	}
	return pend, nil
}

// failWindow resolves every entry's Pending with err. Nothing here has
// been admitted to the DAG, so there is no CE state to unwind.
func failWindow(entries []winEntry, err error) {
	for i := range entries {
		entries[i].pend.resolve(0, err)
	}
}

// flushWindowLocked admits the parked window — the scheduling stage, the
// timed section of the paper's Figure 9 — and hands it to the dispatch
// engine: phase A inserts every CE into the DAG, phase B evaluates the
// policy for all of them against the frozen membership snapshot, phase C
// applies lineage and membership prediction in window order. blocking says the caller waits for the
// window, and so works through it itself when it can (pipeline.go). Caller
// holds subMu. The returned error is the sticky error or an admission
// failure; dispatch errors surface on Pendings and Drain.
func (c *Controller) flushWindowLocked(blocking bool) error {
	ws := c.win
	n := len(ws)
	if n == 0 {
		return nil
	}
	// Nothing parks while the window flushes (both hold subMu): the
	// entries are read in place and the storage kept for the next window.
	defer func() {
		clear(ws)
		c.win = ws[:0]
	}()

	c.mu.Lock()
	err := c.pipe.err
	workers := c.aliveWorkers()
	if err == nil && len(workers) == 0 {
		err = fmt.Errorf("core: no workers available")
	}
	if err != nil {
		c.mu.Unlock()
		c.pipe.fail(err, blocking) // no-op when err is the sticky error already
		failWindow(ws, err)
		return err
	}

	schedStart := time.Now()
	b := getBatch(n, c.optWindow)
	scheds := b.scheds

	// Phase A: DAG admission in window order.
	for i, e := range ws {
		s := &scheds[i]
		s.ce, s.ancestors = c.admitCE(e.inv, e.accs)
		s.inv, s.accs = e.inv, e.accs
		s.stats = e.stats
	}

	// Phase B: batched placement. Membership (and thus every
	// per-array estimate cache) is frozen across the loop — no
	// predictions are applied between evaluations — so refreshEst runs
	// at most once per distinct array per window, and two CEs over the
	// same contributing arrays share one data view outright (policies
	// treat Request.Nodes as read-only).
	if ba, ok := c.pol.(policy.BatchAssigner); ok && n > 1 {
		if cap(c.winReqs) < n {
			c.winReqs = make([]policy.Request, n)
		}
		if cap(c.winNodes) < n*len(workers) {
			c.winNodes = make([]policy.NodeInfo, n*len(workers))
		}
		if c.winViews == nil {
			c.winViews = make(map[uint64]int, c.optWindow)
		}
		clear(c.winViews)
		reqs := c.winReqs[:n]
		slab := c.winNodes[:n*len(workers)]
		dedupe := c.pol.NeedsDataView()
		for i := range ws {
			s := &scheds[i]
			if dedupe {
				key := dataViewKey(s.inv.Args, s.accs)
				if j, ok := c.winViews[key]; ok && sameDataView(&scheds[j], s) {
					reqs[i] = policy.Request{CE: s.ce, Nodes: reqs[j].Nodes,
						Total: reqs[j].Total, MaxUp: reqs[j].MaxUp}
					continue
				}
				c.winViews[key] = i
			}
			nodes := slab[i*len(workers) : (i+1)*len(workers)]
			reqs[i] = c.buildRequestInto(s.ce, s.inv.Args, s.accs, nodes, workers)
		}
		targets := ba.AssignBatch(reqs)
		for i := range scheds {
			scheds[i].target = targets[i]
		}
	} else {
		for i := range ws {
			s := &scheds[i]
			req := c.buildRequest(s.ce, s.inv.Args, s.accs)
			s.target = c.pol.Assign(req)
		}
	}

	// Phase C: lineage and membership prediction, in window order, so
	// dispatch-correctness state (upAtSched, versions) is exactly what
	// one-by-one admission would have produced for these placements.
	for i := range ws {
		s := &scheds[i]
		c.recordLineage(s)
		c.predictMembership(s)
	}

	dur := time.Since(schedStart)
	per := dur / time.Duration(n)
	for i := range scheds {
		scheds[i].schedDur = per
	}
	c.schedTime += dur
	c.schedCEs += n
	c.mu.Unlock()

	for i := range ws {
		b.jobs[i] = job{s: &scheds[i], p: ws[i].pend, b: b}
	}
	c.pipe.enqueueBatch(b, blocking)
	return nil
}

// dataViewKey hashes (FNV-1a) the sequence of array arguments that
// contribute to the policy data view — the inputs buildRequestInto sums
// over. Two window CEs with equal sequences see identical views under
// the frozen snapshot.
func dataViewKey(args []ArgRef, accs []memmodel.Access) uint64 {
	h := uint64(14695981039346656037)
	for i, a := range args {
		if !a.IsArray || skipOldBytes(accs, i) {
			continue
		}
		h ^= uint64(a.Array)
		h *= 1099511628211
	}
	return h
}

// sameDataView confirms a key match: the contributing-array sequences
// are actually equal, not merely hash-equal.
func sameDataView(a, b *scheduled) bool {
	i, j := 0, 0
	for {
		for i < len(a.inv.Args) && (!a.inv.Args[i].IsArray || skipOldBytes(a.accs, i)) {
			i++
		}
		for j < len(b.inv.Args) && (!b.inv.Args[j].IsArray || skipOldBytes(b.accs, j)) {
			j++
		}
		ia, jb := i < len(a.inv.Args), j < len(b.inv.Args)
		if !ia || !jb {
			return ia == jb
		}
		if a.inv.Args[i].Array != b.inv.Args[j].Array {
			return false
		}
		i++
		j++
	}
}

// freeBatches recycles admitted windows, jobs and scheduled records
// together. It is shared by every controller, so short-lived controllers —
// a sweep runs one per cell — reuse each other's windows too. It keeps at
// most maxFreeBatches: two controllers' worth of outstanding windows at
// the default depth (a full FIFO, the window its dispatcher works through
// and the one its submitter holds), so a controller's steady state never
// runs the list dry. Unlike
// a sync.Pool it keeps what it is given — a pool drops its contents at
// every collection, and a random share of them under the race detector —
// so a warmed controller's admission allocates the same under -race as
// without (TestSubmitAllocBudget).
var freeBatches struct {
	sync.Mutex
	list []*jobBatch
}

const maxFreeBatches = 2 * defaultPipelineDepth

// getBatch returns a window of n jobs over n zeroed scheduled records
// (whose scratch slices keep their capacity), with both holds taken.
// window is the controller's window size, so a recycled batch fits every
// later window of it.
func getBatch(n, window int) *jobBatch {
	var b *jobBatch
	freeBatches.Lock()
	if k := len(freeBatches.list); k > 0 {
		b = freeBatches.list[k-1]
		freeBatches.list[k-1] = nil
		freeBatches.list = freeBatches.list[:k-1]
	}
	freeBatches.Unlock()
	if b == nil {
		b = new(jobBatch)
	}
	if cap(b.jobs) < n {
		size := max(n, window)
		b.jobs, b.scheds = make([]job, n, size), make([]scheduled, n, size)
	}
	b.jobs, b.scheds = b.jobs[:n], b.scheds[:n]
	b.left.Store(int32(n))
	b.holds.Store(2)
	return b
}

// putBatch resets a finished window and parks it for reuse. It keeps the
// per-CE scratch slices' capacity while zeroing every other field, so a
// parked batch pins no CE, invocation, Pending or array and the next
// admission starts from a clean record.
func putBatch(b *jobBatch) {
	for i := range b.scheds {
		sc := &b.scheds[i]
		arrs := sc.arrs[:0]
		clear(arrs[:cap(arrs)]) // no retained array pointers
		*sc = scheduled{upAtSched: sc.upAtSched[:0], outVers: sc.outVers[:0], arrs: arrs}
	}
	clear(b.jobs)
	b.from, b.own = 0, false
	freeBatches.Lock()
	if len(freeBatches.list) < maxFreeBatches {
		freeBatches.list = append(freeBatches.list, b)
	}
	freeBatches.Unlock()
}

// countEliminatedMove records a move-elimination skip on both counter
// blocks.
func (c *Controller) countEliminatedMove(s *scheduled) {
	c.optStats.EliminatedMoves.Add(1)
	if s.stats != nil {
		s.stats.EliminatedMoves.Add(1)
	}
}
