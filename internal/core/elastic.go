package core

// Fleet elasticity: workers join and leave a RUNNING controller.
//
// The fabric's worker set stays fixed at construction (the cluster's
// bandwidth matrix is sized then), so elasticity is a membership overlay: Options.Workers seeds a
// roster of active members, the rest of the fleet idles as a standby
// pool, and AddWorker/RetireWorker move nodes between the two while
// CEs stream.
//
// Retirement is deliberately NOT death. markDead (failover) forgets a
// worker's replicas and leans on lineage to recompute whatever is lost;
// retirement instead drains the pipeline and MIGRATES every sole-copy
// array to a surviving member first — reusing the fabric move path the
// lineage replayer uses (replayStep's worker→worker MoveArray idiom) —
// and only falls back to lineage recovery when a migration move fails.
// The failover counter is untouched and nothing is recomputed in the
// happy path, so a retire mid-workload yields bit-identical results to
// a static-fleet run.

import (
	"fmt"
	"sort"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/sim"
)

// Members reports the controller's current scheduling membership: the
// roster (or the whole fabric fleet when no roster was ever set) minus
// workers written off by failover.
func (c *Controller) Members() []cluster.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cluster.NodeID(nil), c.aliveWorkers()...)
}

// memberOfFleet reports whether the fabric was provisioned with w.
func (c *Controller) memberOfFleet(w cluster.NodeID) bool {
	for _, n := range c.fabric.Workers() {
		if n == w {
			return true
		}
	}
	return false
}

// AddWorker activates a standby worker on a running controller: it
// becomes a scheduling candidate for every CE admitted after the call.
// The worker must belong to the fabric's provisioned fleet (the standby
// pool), be healthy, not be a current member, and not have been written
// off by failover — a written-off worker's replicas were already
// forgotten, so letting it rejoin silently would resurrect stale data.
func (c *Controller) AddWorker(w cluster.NodeID) error {
	if !c.memberOfFleet(w) {
		return fmt.Errorf("core: add worker %v: not in the provisioned fleet", w)
	}
	if !c.fabric.Healthy(w) {
		return fmt.Errorf("core: add worker %v: not healthy", w)
	}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[w] {
		return fmt.Errorf("core: add worker %v: written off by failover; cannot rejoin", w)
	}
	if c.roster == nil {
		return fmt.Errorf("core: add worker %v: already a member (no roster set; the whole fleet is active)", w)
	}
	if c.roster[w] {
		return fmt.Errorf("core: add worker %v: already a member", w)
	}
	c.roster[w] = true
	// Membership edits invalidate the same caches a death does: the
	// alive list and every per-array transfer-estimate vector.
	c.deadGen++
	c.alive = nil
	return nil
}

// RetireWorker removes a member from a running controller gracefully:
// it drains the dispatch pipeline, migrates every array whose only
// valid copy lives on w to a surviving member (lineage recovery is the
// fallback when a move fails), frees w's replicas, and drops w from the
// roster. Unlike a failover death the worker's data is preserved by
// migration, the failover counter is untouched, and w returns to the
// standby pool — AddWorker can re-activate it later.
func (c *Controller) RetireWorker(w cluster.NodeID) error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	// Drain first: after this no CE is mid-dispatch, so the registry is
	// quiescent and member == upToDate for every array w touches.
	if err := c.drainLocked(); err != nil {
		return fmt.Errorf("core: retire worker %v: drain: %w", w, err)
	}

	c.mu.Lock()
	if c.dead[w] {
		c.mu.Unlock()
		return fmt.Errorf("core: retire worker %v: already written off by failover", w)
	}
	if c.roster == nil {
		// First elastic operation on a full-fleet controller: materialize
		// the implicit roster so membership can shrink.
		c.roster = make(map[cluster.NodeID]bool)
		for _, n := range c.fabric.Workers() {
			if !c.dead[n] {
				c.roster[n] = true
			}
		}
	}
	if !c.roster[w] {
		c.mu.Unlock()
		return fmt.Errorf("core: retire worker %v: not a member", w)
	}
	var survivors []cluster.NodeID
	for _, n := range c.aliveWorkers() {
		if n != w {
			survivors = append(survivors, n)
		}
	}
	if len(survivors) == 0 {
		c.mu.Unlock()
		return fmt.Errorf("core: retire worker %v: it is the last live member", w)
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })

	// Plan the evacuation: every array with a replica on w needs that
	// replica freed; arrays where it is the ONLY valid copy need it
	// migrated to a survivor first. Iterate in ID order so destination
	// choice (round-robin over survivors) is deterministic.
	ids := make([]dag.ArrayID, 0, len(c.arrays))
	for id := range c.arrays {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	type evac struct {
		arr   *GlobalArray
		dst   cluster.NodeID // destination for a sole-copy migration
		ready sim.VirtualTime
		sole  bool
	}
	var plan []evac
	rr := 0
	for _, id := range ids {
		arr := c.arrays[id]
		at, held := arr.upToDate[w]
		if !held {
			continue
		}
		e := evac{arr: arr, ready: at, sole: true}
		for n := range arr.upToDate {
			if n != w {
				e.sole = false
				break
			}
		}
		if e.sole {
			e.dst = survivors[rr%len(survivors)]
			rr++
		}
		plan = append(plan, e)
	}
	c.mu.Unlock()

	// Execute the moves off the controller locks (fabric calls may be
	// slow RPCs). subMu is still held, so no submission races us, and
	// the drained pipeline means no dispatch does either. This is the
	// lineage replayer's worker→worker move idiom: nil buffers, the
	// fabric ships P2P from the source runtime.
	var lost []dag.ArrayID
	for _, e := range plan {
		if !e.sole {
			continue
		}
		arr := e.arr
		err := c.fabric.EnsureArray(e.dst, arr.ArrayMeta)
		var at sim.VirtualTime
		if err == nil {
			at, err = c.fabric.MoveArray(arr.ID, w, e.dst, e.ready, nil, nil)
		}
		c.mu.Lock()
		if err != nil {
			// Migration failed: treat w's copy as lost and let lineage
			// recompute the array on the survivors below.
			delete(arr.upToDate, w)
			arr.dropMember(w)
			arr.gen++
			lost = append(lost, arr.ID)
			c.mu.Unlock()
			continue
		}
		arr.upToDate[e.dst] = at
		if arr.addMember(e.dst) {
			arr.gen++
		}
		if at > c.elapsed {
			c.elapsed = at
		}
		c.movedBytes += arr.size
		c.p2pMoves++
		c.mu.Unlock()
	}

	// Drop w's replicas from the registry and the roster before any
	// lineage fallback runs, so recovery can neither read from nor place
	// onto the retiring worker.
	c.mu.Lock()
	for _, e := range plan {
		arr := e.arr
		delete(arr.upToDate, w)
		if arr.dropMember(w) {
			arr.gen++
		}
	}
	delete(c.roster, w)
	c.deadGen++
	c.alive = nil
	c.mu.Unlock()

	if len(lost) > 0 {
		if err := c.recoverArrays(lost); err != nil {
			return fmt.Errorf("core: retire worker %v: migration failed and lineage recovery could not recompute: %w", w, err)
		}
	}

	// Best-effort: release the retired worker's replicas so the standby
	// node holds no framework memory.
	for _, e := range plan {
		_ = c.fabric.FreeArray(w, e.arr.ID)
	}
	return nil
}
