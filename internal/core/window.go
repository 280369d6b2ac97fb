// The window (DESIGN.md §5.6): where every kernel CE waits to be admitted.
//
// Submit validates the invocation and parks it; when the window fills (or
// a synchronization point flushes it) the whole batch is admitted by
// flushWindowLocked — the one scheduling stage — and handed to the dispatch
// engine (pipeline.go). The window holds max(1, Options.OptimizeWindow)
// CEs. With Options.OptimizeWindow > 0 the batch also runs through the
// optimizer passes:
//
//  1. Kernel fusion (internal/optimizer.FusePass): elementwise
//     producer→consumer chains collapse into one fused CE before the DAG
//     ever sees them, eliminating the intermediate's materialization —
//     and, when the window proves the intermediate dead, its transfer.
//  2. Transfer coalescing (optimizer.PlanPrefetch): the controller→worker
//     moves of a consecutive same-target run ship as one bulk fabric
//     operation when the leader CE dispatches.
//  3. Redundant-move elimination: dispatch consults the authoritative
//     replica registry before issuing the per-argument EnsureArray round
//     trip, skipping fabric traffic for replicas the window's lineage
//     already placed.
//  4. Batched policy evaluation: every window CE's placement request is
//     built against one frozen membership snapshot, so the per-array
//     transfer-estimate vectors refresh at most once per window instead
//     of once per CE.
//
// A window of one has nothing to fuse, coalesce or batch: phases A–C below
// are then exactly Algorithm 1's per-CE admission, and without
// Options.OptimizeWindow pass 3 is off too.
//
// Equivalence to one-by-one admission: all rewrites happen before the
// batch is admitted to the DAG and before it enters the engine's FIFO, so
// the guarantee of pipeline.go — when a CE is dispatched every earlier one
// has committed or failed — carries over to the rewritten window
// unchanged. Within the window, fusion legality (optimizer package) proves
// the fused CE equivalent to its parts, and phases A–C apply lineage and
// membership prediction in window order exactly as one-by-one admission
// would. Only the *policy inputs* differ: phase B deliberately evaluates
// every placement against the pre-window membership view (the snapshot),
// so placements may differ from a window of one's — outputs never do,
// because dispatch re-validates every move against authoritative replica
// state.
//
// Tenancy: fusion never crosses a tenant tag (optimizer.FusePass), but
// placement packs CEs from different tenants onto shared workers under
// whatever policy weights are active — the window is one shared batch.
package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/optimizer"
	"grout/internal/policy"
	"grout/internal/sim"
)

// OptCounters aggregates the optimizer's work. Sessions pass one to
// SubmitTagged for per-tenant accounting; the controller keeps a global
// one. Atomics, because dispatch-side passes (coalescing, move
// elimination) bump them off the submitter's goroutine.
type OptCounters struct {
	// FusedCEs counts producer CEs absorbed into fused kernels.
	FusedCEs atomic.Int64
	// CoalescedTransfers counts controller→worker moves that rode a bulk
	// frame instead of going out individually.
	CoalescedTransfers atomic.Int64
	// EliminatedMoves counts argument transfers skipped because the
	// target already held a fresh replica the window predicted.
	EliminatedMoves atomic.Int64
}

// OptStats is a point-in-time snapshot of OptCounters.
type OptStats struct {
	FusedCEs           int64
	CoalescedTransfers int64
	EliminatedMoves    int64
}

// Snapshot reads the counters.
func (o *OptCounters) Snapshot() OptStats {
	return OptStats{
		FusedCEs:           o.FusedCEs.Load(),
		CoalescedTransfers: o.CoalescedTransfers.Load(),
		EliminatedMoves:    o.EliminatedMoves.Load(),
	}
}

// OptStats reports the controller-wide optimizer counters.
func (c *Controller) OptStats() OptStats { return c.optStats.Snapshot() }

// winEntry is one parked, validated, not-yet-admitted CE.
type winEntry struct {
	inv  Invocation
	def  *kernels.Def
	accs []memmodel.Access
	// p resolves when the CE (or the fused CE that absorbed it)
	// dispatches; made at park time since Submit returns before flush.
	// On parked entries it points at pend — one allocation instead of
	// two on the per-CE admission path; fused entries borrow the
	// consumer's.
	p    *Pending
	pend Pending
	// followers are absorbed producers' Pendings (set on fused entries).
	followers []*Pending
	// stats is the submitting session's counter block (nil for the
	// direct embedded client).
	stats *OptCounters
	// tenant isolates fusion (compared with ==); nil is the direct
	// embedded client.
	tenant any
}

// prefetchPlan is a transfer-coalescing plan attached to a run leader's
// scheduled record: ship these arrays to target in one bulk move when
// the leader dispatches. A hint only — bulkPrefetch re-validates every
// array against the authoritative registry and silently degrades to the
// regular per-argument path.
type prefetchPlan struct {
	target cluster.NodeID
	arrs   []*GlobalArray
	stats  *OptCounters
}

// SubmitTagged is Submit carrying a tenant tag and a per-tenant counter
// block for the optimizer passes.
func (c *Controller) SubmitTagged(inv Invocation, stats *OptCounters, tenant any) (*Pending, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.parkLocked(inv, stats, tenant, false)
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
func (c *Controller) parkLocked(inv Invocation, stats *OptCounters, tenant any, blocking bool) (*Pending, error) {
	if c.pipe.closed {
		return nil, fmt.Errorf("core: controller closed")
	}
	if err := c.pipe.sticky(); err != nil {
		return nil, err
	}
	def, accs, err := c.validate(inv)
	if err != nil {
		return nil, err
	}
	e := &winEntry{
		inv: inv, def: def, accs: accs,
		stats: stats, tenant: tenant,
	}
	e.pend.done = make(chan struct{})
	e.p = &e.pend
	c.win = append(c.win, e)
	if blocking || len(c.win) >= c.optWindow {
		if err := c.flushWindowLocked(blocking); err != nil {
			return e.p, err
		}
	}
	return e.p, nil
}

// failWindow resolves every entry's Pending (and followers) with err.
// Nothing here has been admitted to the DAG, so there is no CE state to
// unwind.
func failWindow(entries []*winEntry, err error) {
	for _, e := range entries {
		e.p.resolve(0, err)
		for _, f := range e.followers {
			f.resolve(0, err)
		}
	}
}

// flushWindowLocked admits the parked window — the scheduling stage, the
// timed section of the paper's Figure 9 — and hands it to the dispatch
// engine: the optimizer passes rewrite the batch, phase A inserts every CE
// into the DAG, phase B evaluates the policy for all of them against the
// frozen membership snapshot, phase C applies lineage and membership
// prediction in window order. blocking says the caller waits for the
// window, and so works through it itself when it can (pipeline.go). Caller
// holds subMu. The returned error is the sticky error or an admission
// failure; dispatch errors surface on Pendings and Drain.
func (c *Controller) flushWindowLocked(blocking bool) error {
	entries := c.win
	c.win = nil
	if len(entries) == 0 {
		return nil
	}

	// Pass 1: kernel fusion. Worth attempting only when at least two
	// entries carry the compiler's elementwise descriptor.
	ws := entries
	fusable := 0
	for _, e := range entries {
		if e.def.Fusion != nil {
			fusable++
		}
	}
	if fusable >= 2 {
		ws = c.fuseWindowLocked(entries)
	}

	n := len(ws)

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
	scheds := c.getSchedSlab(n)

	// Phase A: DAG admission in window order.
	for i, e := range ws {
		s := &scheds[i]
		s.ce, s.ancestors = c.admitCE(e.inv, e.accs)
		s.inv, s.accs = e.inv, e.accs
		s.stats = e.stats
	}

	// Phase B: batched policy evaluation. Membership (and thus every
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

	// Pass 2: transfer-coalescing plans, attached to run leaders.
	if c.bulkMover != nil && n > 1 {
		c.planPrefetchLocked(ws, scheds)
	}
	c.mu.Unlock()

	b := &jobBatch{jobs: make([]job, n), scheds: scheds}
	b.left.Store(int32(n))
	for i := range ws {
		b.jobs[i] = job{s: &scheds[i], p: ws[i].p, followers: ws[i].followers, b: b}
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

// getSchedSlab pops a recycled scheduled slab (or allocates one with the
// full window's capacity, so every slab fits every later window).
func (c *Controller) getSchedSlab(n int) []scheduled {
	c.schedSlabMu.Lock()
	if k := len(c.schedSlabs); k > 0 && cap(c.schedSlabs[k-1]) >= n {
		s := c.schedSlabs[k-1]
		c.schedSlabs = c.schedSlabs[:k-1]
		c.schedSlabMu.Unlock()
		return s[:n]
	}
	c.schedSlabMu.Unlock()
	return make([]scheduled, n, max(n, c.optWindow))
}

// putSchedSlab resets a fully dispatched slab and parks it for reuse.
// The reset happens here — where the window's last job resolved, off the
// scheduling stage's critical path — and keeps the per-CE scratch slices'
// capacity, while zeroing every other field so flushWindowLocked's
// conditional writes (prefetch above all) can't see stale state.
func (c *Controller) putSchedSlab(s []scheduled) {
	for i := range s {
		sc := &s[i]
		arrs := sc.arrs[:0]
		clear(arrs[:cap(arrs)]) // no retained array pointers
		*sc = scheduled{upAtSched: sc.upAtSched[:0], outVers: sc.outVers[:0], arrs: arrs}
	}
	c.schedSlabMu.Lock()
	if len(c.schedSlabs) < 4 {
		c.schedSlabs = append(c.schedSlabs, s)
	}
	c.schedSlabMu.Unlock()
}

// fuseWindowLocked runs the fusion pass and maps the rewritten ops back
// to window entries. Caller holds subMu (the arrays map and registry are
// stable under it).
func (c *Controller) fuseWindowLocked(entries []*winEntry) []*winEntry {
	ops := make([]*optimizer.Op, len(entries))
	for i, e := range entries {
		args := make([]optimizer.Arg, len(e.inv.Args))
		for k, a := range e.inv.Args {
			if a.IsArray {
				// validate accepted the entry, so the array exists.
				arr := c.arrays[a.Array]
				args[k] = optimizer.Arg{Array: uint64(a.Array), Meta: kernels.ArgMeta{IsBuffer: true, Len: arr.Len}}
			} else {
				args[k] = optimizer.Arg{Meta: kernels.ArgMeta{Scalar: a.Scalar}}
			}
		}
		ops[i] = &optimizer.Op{
			Def: e.def, Grid: e.inv.Grid, Block: e.inv.Block,
			Args: args, Tenant: e.tenant, Ref: e,
		}
	}
	res := optimizer.FusePass(ops, c.compileFused)
	if res.Fused == 0 {
		return entries
	}
	out := make([]*winEntry, len(res.Ops))
	for i, op := range res.Ops {
		e := op.Ref.(*winEntry)
		if len(op.Absorbed) == 0 {
			out[i] = e
			continue
		}
		args := make([]ArgRef, len(op.Args))
		metas := make([]kernels.ArgMeta, len(op.Args))
		for k, a := range op.Args {
			metas[k] = a.Meta
			if a.Meta.IsBuffer {
				args[k] = ArrRef(dag.ArrayID(a.Array))
			} else {
				args[k] = ScalarRef(a.Meta.Scalar)
			}
		}
		fe := &winEntry{
			inv:  Invocation{Kernel: op.Def.Name, Grid: op.Grid, Block: op.Block, Args: args},
			def:  op.Def,
			accs: op.Def.Access(metas),
			p:    e.p, stats: e.stats, tenant: e.tenant,
			followers: e.followers,
		}
		for _, ref := range op.Absorbed {
			pe := ref.(*winEntry)
			fe.followers = append(fe.followers, pe.p)
			fe.followers = append(fe.followers, pe.followers...)
		}
		fused := int64(len(op.Absorbed))
		c.optStats.FusedCEs.Add(fused)
		if fe.stats != nil {
			fe.stats.FusedCEs.Add(fused)
		}
		out[i] = fe
	}
	return out
}

// compileFused is the optimizer's Compiler: fused source goes through
// the shared compile cache (keyed on the fused source hash), registers
// with the controller, and broadcasts to the fabric — a BuildKernel that
// does not drain. Safe against in-flight dispatchers because the
// registry is internally locked and fabric kernel builds touch no
// timeline state.
func (c *Controller) compileFused(src string) (*kernels.Def, error) {
	key := minicuda.CacheKey(src, "")
	var def *kernels.Def
	if name, ok := c.reg.CachedSource(key); ok {
		if d, ok := c.reg.Lookup(name); ok {
			def = d
		}
	}
	if def == nil {
		d, err := minicuda.Compile(src, "")
		if err != nil {
			return nil, err
		}
		if def, err = c.reg.LookupOrRegister(d); err != nil {
			return nil, err
		}
		c.reg.CacheSource(key, def.Name)
	}
	if err := BuildKernel(c.fabric, src, ""); err != nil {
		return nil, err
	}
	return def, nil
}

// planPrefetchLocked computes coalescing plans for the admitted window
// and attaches each to its run leader. Caller holds mu (and subMu).
func (c *Controller) planPrefetchLocked(ws []*winEntry, scheds []scheduled) {
	if cap(c.winPlaced) < len(scheds) {
		c.winPlaced = make([]optimizer.PlacedOp, len(scheds))
	}
	placed := c.winPlaced[:len(scheds)]
	for i := range scheds {
		s := &scheds[i]
		po := &placed[i]
		po.Target = s.target
		po.Needs, po.Writes = po.Needs[:0], po.Writes[:0]
		for k, a := range s.inv.Args {
			if !a.IsArray {
				continue
			}
			if s.accs[k].Mode.Writes() {
				po.Writes = append(po.Writes, uint64(a.Array))
			}
			if skipOldBytes(s.accs, k) || s.upAtSched[k] {
				continue
			}
			po.Needs = append(po.Needs, uint64(a.Array))
		}
	}
	for _, plan := range optimizer.PlanPrefetch(placed) {
		pf := &prefetchPlan{target: plan.Target, stats: ws[plan.Leader].stats}
		for _, id := range plan.Arrays {
			if arr := c.arrays[dag.ArrayID(id)]; arr != nil {
				pf.arrs = append(pf.arrs, arr)
			}
		}
		if len(pf.arrs) >= 2 {
			scheds[plan.Leader].prefetch = pf
		}
	}
}

// bulkPrefetch executes a run leader's coalescing plan: every planned
// array whose fresh bytes sit on the controller and not yet on the
// target ships in one bulk fabric move. Purely opportunistic — any
// filter or fabric failure degrades to the regular per-argument path,
// and registration re-checks the committed version so a concurrent
// writer (concurrent-dispatch fabrics) can never be resurrected by a
// stale payload. Returns the bytes it moved.
func (c *Controller) bulkPrefetch(s *scheduled) memmodel.Bytes {
	pf := s.prefetch
	s.prefetch = nil // one shot, even across failover retries
	bm := c.bulkMover
	if bm == nil {
		return 0
	}

	var (
		ids      []dag.ArrayID
		arrs     []*GlobalArray
		cvers    []uint64
		bufs     []*kernels.Buffer
		srcReady sim.VirtualTime
	)
	c.mu.Lock()
	if c.dead[pf.target] {
		c.mu.Unlock()
		return 0
	}
	for _, arr := range pf.arrs {
		if _, up := arr.upToDate[pf.target]; up {
			continue // already resident
		}
		t, up := arr.upToDate[cluster.ControllerID]
		if !up {
			continue // not controller-resident: per-op path picks a source
		}
		ids = append(ids, arr.ID)
		arrs = append(arrs, arr)
		cvers = append(cvers, arr.cver)
		bufs = append(bufs, arr.Buf)
		if t > srcReady {
			srcReady = t
		}
	}
	c.mu.Unlock()
	if len(ids) < 2 {
		return 0
	}

	for _, arr := range arrs {
		if err := c.fabric.EnsureArray(pf.target, arr.ArrayMeta); err != nil {
			return 0
		}
	}
	arrival, err := bm.MoveArrays(pf.target, ids, srcReady, bufs)
	if err != nil {
		return 0
	}

	var moved memmodel.Bytes
	shipped := 0
	c.mu.Lock()
	if !c.dead[pf.target] {
		for k, arr := range arrs {
			if arr.cver != cvers[k] {
				continue // overwritten since planning: payload is stale
			}
			c.registerCopy(arr, pf.target, arrival, true)
			shipped++
			moved += arr.size
		}
		if shipped > 0 && arrival > c.elapsed {
			c.elapsed = arrival
		}
	}
	c.mu.Unlock()
	if shipped >= 2 {
		c.optStats.CoalescedTransfers.Add(int64(shipped))
		if pf.stats != nil {
			pf.stats.CoalescedTransfers.Add(int64(shipped))
		}
	}
	return moved
}

// countEliminatedMove records a pass-3 skip on both counter blocks.
func (c *Controller) countEliminatedMove(s *scheduled) {
	c.optStats.EliminatedMoves.Add(1)
	if s.stats != nil {
		s.stats.EliminatedMoves.Add(1)
	}
}
