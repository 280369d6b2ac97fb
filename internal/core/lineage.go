// Lineage-based array recovery (DESIGN.md §5.4).
//
// The failover path reroutes CEs around dead workers, but an array whose
// only valid copy died with its worker used to be terminal (ErrDataLost).
// This file turns that into a recoverable event, Spark-RDD/Ray style:
// while failover is enabled the Controller records, for every version of
// every written array, the invocation that produced it and the (array,
// version) pairs it read. On a loss it walks that lineage closure back to
// data that still lives somewhere (a live replica, or the controller's
// copy of a host-written root), replays the producer chain on the
// survivors, and republishes the recovered locations — only surfacing
// ErrDataLost when the chain bottoms out in something genuinely gone.
//
// Arrays are mutable, so last-writer alone is not enough: a producer
// record is only replayable if each input is available *at the version the
// record read*. Version bookkeeping lives on GlobalArray (ver/cver, see
// controller.go); records are keyed by (array, version). Replaying an
// in-place overwrite chain (relu x: x@v2 = f(x@v1)) necessarily rolls the
// physical buffer back to an older state, so the planner extends every
// such chain forward to the array's committed tip before publishing.
//
// Replayed CEs bypass the Global DAG and the dispatch pipeline entirely:
// inserting them would create WAR edges from the very CE whose dispatch is
// blocked on the loss, which could then never run. Instead the executor
// drives the fabric directly — policy placement, input shipping, launch —
// under the recovery mutex, and keeps intermediate versions out of the
// public registry so nothing mistakes a half-replayed buffer for current
// data.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// lineageKey names one version of one array.
type lineageKey struct {
	id  dag.ArrayID
	ver uint64
}

// producerRec is the replayable record of the CE that produced one or more
// array versions. One record serves every array the CE wrote.
type producerRec struct {
	// ce is a private copy of the producer's identity: recovery hands it
	// to the policy's placement request, like any reschedule, long after
	// the Global DAG has retired the vertex and reused its own CE.
	ce dag.CE
	// inv is the invocation with its argument slice deep-copied: callers
	// may reuse their Args backing across launches.
	inv Invocation
	// accs is the kernel's access analysis (fresh per validate call).
	accs []memmodel.Access
	// inputs lists the read array arguments in argument order, each at
	// the version current when the CE was admitted.
	inputs []lineageKey
	// outs lists the written array arguments with the versions this CE
	// produced.
	outs []lineageKey
}

// recordLineage assigns the scheduled CE's output versions (always, so
// cver semantics don't depend on failover being enabled) and, when the
// lineage index is on, stores its producer record. Called from schedule
// with mu held, before predictMembership. Input versions are captured
// before output versions advance, so an in-place read-write (relu x)
// records x@v as the input of x@v+1.
func (c *Controller) recordLineage(s *scheduled) {
	s.outVers = s.outVers[:0]
	var rec *producerRec
	if c.lineage != nil {
		for i, a := range s.inv.Args {
			if a.IsArray && s.accs[i].Mode.Writes() {
				rec = &producerRec{ce: dag.CE{ID: s.ce.ID, Label: s.ce.Label}, inv: s.inv, accs: s.accs}
				rec.inv.Args = append([]ArgRef(nil), s.inv.Args...)
				break
			}
		}
		if rec != nil {
			for i, a := range s.inv.Args {
				if a.IsArray && s.accs[i].Mode.Reads() {
					rec.inputs = append(rec.inputs, lineageKey{a.Array, c.arrays[a.Array].ver})
				}
			}
		}
	}
	for i, a := range s.inv.Args {
		if a.IsArray && s.accs[i].Mode.Writes() {
			arr := c.arrays[a.Array]
			arr.ver++
			s.outVers = append(s.outVers, arr.ver)
			if rec != nil {
				k := lineageKey{a.Array, arr.ver}
				rec.outs = append(rec.outs, k)
				c.lineage[k] = rec
			}
		}
	}
}

// recoverLoss extracts the lost array from a data-loss error and runs
// recovery for it.
func (c *Controller) recoverLoss(err error) error {
	var dl *errDataLoss
	if !errors.As(err, &dl) {
		return err
	}
	return c.recoverArrays([]dag.ArrayID{dl.id})
}

// recoveryPlan is an ordered replay of producer CEs plus the arrays whose
// committed-tip versions it reproduces.
type recoveryPlan struct {
	steps  []*producerRec
	arrays map[dag.ArrayID]bool
}

// recoverArrays recomputes lost arrays from lineage. Safe to call from
// concurrent dispatchers: recoveries serialize on recMu, and a caller
// whose loss an earlier recovery already repaired returns immediately.
func (c *Controller) recoverArrays(ids []dag.ArrayID) error {
	c.recMu.Lock()
	defer c.recMu.Unlock()
	start := time.Now()

	c.mu.Lock()
	lost := make([]dag.ArrayID, 0, len(ids))
	for _, id := range ids {
		arr := c.arrays[id]
		if arr == nil || len(arr.upToDate) != 0 {
			continue
		}
		lost = append(lost, id)
	}
	if len(lost) == 0 {
		c.mu.Unlock()
		return nil
	}
	plan, err := c.planRecovery(lost)
	c.mu.Unlock()
	if err == nil {
		err = c.executeRecovery(plan)
	}

	c.mu.Lock()
	c.recoveryTime += time.Since(start)
	c.mu.Unlock()
	return err
}

// planRecovery builds the replay closure for the lost arrays: the minimal
// set of producer records that rebuilds each array at its committed
// version from data that still lives somewhere. Caller holds mu.
func (c *Controller) planRecovery(ids []dag.ArrayID) (*recoveryPlan, error) {
	plan := &recoveryPlan{arrays: make(map[dag.ArrayID]bool)}
	visited := make(map[lineageKey]bool)
	inPlan := make(map[*producerRec]bool)

	var need func(k lineageKey) error
	need = func(k lineageKey) error {
		if visited[k] {
			return nil
		}
		visited[k] = true
		arr := c.arrays[k.id]
		if arr == nil {
			return fmt.Errorf("core: recovery needs freed array %d: %w", k.id, ErrDataLost)
		}
		if len(arr.upToDate) > 0 {
			if k.ver == arr.cver {
				return nil // live at the needed version: ship, don't replay
			}
			if k.ver == arr.hostVer {
				return nil // superseded, but the host buffer still holds it
			}
			// A newer committed version is live somewhere; replaying the
			// older one would clobber it. Conservatively unrecoverable.
			return fmt.Errorf("core: array %d lost at version %d but version %d is live: %w",
				k.id, k.ver, arr.cver, ErrDataLost)
		}
		rec := c.lineage[k]
		if rec == nil {
			if k.ver == arr.hostVer {
				// Host-initialized root: the controller's buffer still
				// holds exactly this version; replayStep re-ships it.
				return nil
			}
			// A root with no producer record whose bytes the controller
			// no longer holds either.
			return fmt.Errorf("core: array %d version %d has no replayable producer: %w",
				k.id, k.ver, ErrDataLost)
		}
		for _, in := range rec.inputs {
			if err := need(in); err != nil {
				return err
			}
		}
		if !inPlan[rec] {
			inPlan[rec] = true
			plan.steps = append(plan.steps, rec)
		}
		if k.ver < arr.cver {
			// In-place overwrite chain: replay forward to the committed
			// tip, or the registry would claim a version the buffer does
			// not hold.
			return need(lineageKey{k.id, k.ver + 1})
		}
		plan.arrays[k.id] = true
		return nil
	}

	for _, id := range ids {
		if err := need(lineageKey{id, c.arrays[id].cver}); err != nil {
			return nil, err
		}
	}
	// Ascending CE ID is a topological order of the replay: any plan CE
	// reading version v of an array was admitted before the CE producing
	// v+1 (the DAG's WAR edge ordered them), so every step finds its
	// inputs at the right version when it runs.
	sort.Slice(plan.steps, func(i, j int) bool { return plan.steps[i].ce.ID < plan.steps[j].ce.ID })
	return plan, nil
}

// planLoc is where an in-plan array's freshest replayed version lives
// while a recovery runs.
type planLoc struct {
	node cluster.NodeID
	t    sim.VirtualTime
}

// executeRecovery replays the plan's producer chain and publishes the
// recovered locations. Intermediate versions stay in the plan-local map:
// the public registry only ever shows committed-tip data.
func (c *Controller) executeRecovery(plan *recoveryPlan) error {
	locs := make(map[dag.ArrayID]planLoc)
	for _, rec := range plan.steps {
		if err := c.replayStep(rec, locs); err != nil {
			return err
		}
	}

	c.mu.Lock()
	for id := range plan.arrays {
		l, ok := locs[id]
		if !ok {
			continue // defensive: the planner always schedules a producer
		}
		arr := c.arrays[id]
		clear(arr.upToDate)
		arr.upToDate[l.node] = l.t
		// The membership view belongs to the scheduler's timeline; only
		// repair it where the loss emptied it, so admitted-but-undispatched
		// predictions stay intact.
		if !arr.hasMembers() {
			arr.addMember(l.node)
			arr.gen++
		}
		if l.t > c.elapsed {
			c.elapsed = l.t
		}
		c.recoveries++
	}
	c.mu.Unlock()
	return nil
}

// replayStep re-executes one producer CE against the fabric: policy
// placement, input shipping (plan-local locations first, live replicas
// otherwise), launch. Worker deaths mid-replay fail over within the step.
func (c *Controller) replayStep(rec *producerRec, locs map[dag.ArrayID]planLoc) error {
	type pendingMove struct {
		id    dag.ArrayID
		src   cluster.NodeID
		ready sim.VirtualTime
		buf   *kernels.Buffer
		size  memmodel.Bytes
	}
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if len(c.aliveWorkers()) == 0 {
			c.mu.Unlock()
			return fmt.Errorf("core: no workers left to replay CE %d: %w", rec.ce.ID, ErrDataLost)
		}
		req := c.buildRequest(&rec.ce, rec.inv.Args, rec.accs)
		target := c.pol.Assign(req)

		var moves []pendingMove
		var metas []grcuda.ArrayMeta
		var ready sim.VirtualTime
		var ierr error
		inIdx := 0
		for i, a := range rec.inv.Args {
			if !a.IsArray {
				continue
			}
			arr := c.arrays[a.Array]
			if arr == nil {
				ierr = fmt.Errorf("core: replay of CE %d references freed array %d: %w",
					rec.ce.ID, a.Array, ErrDataLost)
				break
			}
			metas = append(metas, arr.ArrayMeta)
			if !rec.accs[i].Mode.Reads() {
				continue
			}
			k := rec.inputs[inIdx]
			inIdx++
			if l, ok := locs[a.Array]; ok {
				// Produced earlier in this plan; read the replayed copy.
				if l.node != target {
					moves = append(moves, pendingMove{a.Array, l.node, l.t, nil, arr.size})
				} else if l.t > ready {
					ready = l.t
				}
				continue
			}
			if arr.cver != k.ver || len(arr.upToDate) == 0 {
				if arr.hostVer == k.ver {
					// Host-written root the planner approved: the
					// controller's buffer holds these exact bytes.
					moves = append(moves, pendingMove{a.Array, cluster.ControllerID, 0, arr.Buf, arr.size})
					continue
				}
				ierr = fmt.Errorf("core: replay input array %d version %d no longer available: %w",
					a.Array, k.ver, ErrDataLost)
				break
			}
			if t, ok := arr.upToDate[target]; ok {
				if t > ready {
					ready = t
				}
				continue
			}
			src := c.bestSource(arr, target)
			var buf *kernels.Buffer
			if src == cluster.ControllerID {
				buf = arr.Buf
			}
			moves = append(moves, pendingMove{a.Array, src, arr.upToDate[src], buf, arr.size})
		}
		c.mu.Unlock()
		if ierr != nil {
			return ierr
		}

		var moved memmodel.Bytes
		var p2p int
		err := func() error {
			for _, m := range metas {
				if err := c.fabric.EnsureArray(target, m); err != nil {
					return err
				}
			}
			for _, m := range moves {
				at, err := c.fabric.MoveArray(m.id, m.src, target, m.ready, m.buf, nil)
				if err != nil {
					return err
				}
				moved += m.size
				if m.src.IsWorker() {
					p2p++
				}
				if at > ready {
					ready = at
				}
			}
			end, err := c.fabric.Launch(target, rec.inv, ready)
			if err != nil {
				return err
			}
			for _, o := range rec.outs {
				locs[o.id] = planLoc{target, end}
			}
			c.mu.Lock()
			c.movedBytes += moved
			c.p2pMoves += p2p
			c.traces.Push(CETrace{
				CE: rec.ce.ID, Label: "recover:" + rec.inv.Kernel, Node: target,
				Start: ready, End: end, MovedBytes: moved, P2PMoves: p2p,
			})
			c.mu.Unlock()
			return nil
		}()
		if err == nil {
			return nil
		}

		// The same probe-and-write-off the normal dispatch path uses.
		c.mu.Lock()
		anyDead := false
		for _, w := range c.aliveWorkers() {
			if !c.fabric.Healthy(w) {
				c.markDead(w)
				anyDead = true
			}
		}
		survivors := len(c.aliveWorkers())
		targetDead := c.dead[target]
		c.mu.Unlock()
		if (!anyDead && !targetDead) || survivors == 0 || attempt >= maxRecoveryRounds {
			return fmt.Errorf("core: lineage replay of CE %d (%s) failed: %w", rec.ce.ID, rec.inv.Kernel, err)
		}
	}
}
