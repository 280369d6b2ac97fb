package shard

// Plane-level tests: partitioning invariants, disjoint array-ID
// namespaces, the cross-shard lease path (bytes move worker→worker over
// the shared fabric, never through a controller host), and lease-rooted
// lineage recovery — a shard that loses every local copy of a leased
// array must recover it bit-identically from the foreign replica.

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

const planeElems = 64

func newTestPlane(t *testing.T, shards, workers int, wrap func(core.Fabric) core.Fabric) *Plane {
	t.Helper()
	p, err := New(Options{
		Shards:  shards,
		Workers: workers,
		Core:    core.Options{Numeric: true, Failover: true},
		Wrap:    wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// Partitions are disjoint, cover the fleet, and every controller
// allocates array IDs in its own namespace.
func TestPlanePartitionsAndIDNamespaces(t *testing.T) {
	p := newTestPlane(t, 3, 8, nil)
	seen := map[cluster.NodeID]int{}
	total := 0
	for s := 0; s < p.Shards(); s++ {
		part := p.Partition(s)
		if len(part) == 0 {
			t.Fatalf("shard %d owns no workers", s)
		}
		total += len(part)
		for _, w := range part {
			if prev, dup := seen[w]; dup {
				t.Fatalf("worker %v in shards %d and %d", w, prev, s)
			}
			seen[w] = s
		}
	}
	if total != 8 {
		t.Fatalf("partitions cover %d of 8 workers", total)
	}
	for s, ctl := range p.Controllers {
		arr, err := ctl.NewArray(memmodel.Float32, planeElems)
		if err != nil {
			t.Fatal(err)
		}
		lo := IDStride * dag.ArrayID(s)
		if arr.ID <= lo || arr.ID > lo+IDStride {
			t.Fatalf("shard %d allocated array %d outside its namespace (%d, %d]",
				s, arr.ID, lo, lo+IDStride)
		}
	}
}

// The placement guard: a shard controller must only ever launch on its
// own partition, even over many CEs.
func TestPlanePlacementStaysInPartition(t *testing.T) {
	p := newTestPlane(t, 2, 4, nil)
	ctl := p.Controllers[0]
	x, err := ctl.NewArray(memmodel.Float32, planeElems)
	if err != nil {
		t.Fatal(err)
	}
	n := core.ScalarRef(float64(planeElems))
	if _, err := ctl.Submit(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(2), n}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := ctl.Submit(core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(x.ID), n}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	allowed := map[cluster.NodeID]bool{}
	for _, w := range p.Partition(0) {
		allowed[w] = true
	}
	for _, tr := range ctl.Traces() {
		if !allowed[tr.Node] {
			t.Fatalf("shard 0 launched CE %d on foreign worker %v", tr.CE, tr.Node)
		}
	}
}

// planeChain runs fill → relu on shard s and returns the array. The
// committed tip then lives only on one of the shard's workers.
func planeChain(t *testing.T, ctl *core.Controller) *core.GlobalArray {
	t.Helper()
	x, err := ctl.NewArray(memmodel.Float32, planeElems)
	if err != nil {
		t.Fatal(err)
	}
	n := core.ScalarRef(float64(planeElems))
	for _, inv := range []core.Invocation{
		{Kernel: "fill", Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(5), n}},
		{Kernel: "relu", Args: []core.ArgRef{core.ArrRef(x.ID), n}},
	} {
		if _, err := ctl.Submit(inv); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	return x
}

// Replicate moves the lease worker→worker over the shared fabric: the
// grant lands on a worker the destination shard owns, the owning
// controller records the lease, and the transfer counts as P2P (no
// controller bounce).
func TestPlaneReplicateIsWorkerToWorker(t *testing.T) {
	p := newTestPlane(t, 2, 4, nil)
	ctl := p.Controllers[0]
	x := planeChain(t, ctl)

	p2pBefore := ctl.P2PMoves()
	grant, err := p.Replicate(0, 1, x.ID)
	if err != nil {
		t.Fatal(err)
	}
	if grant.Owner != 0 || grant.Holder != 1 || grant.Array != x.ID {
		t.Fatalf("bad grant: %+v", grant)
	}
	inDst := false
	for _, w := range p.Partition(1) {
		if w == grant.Node {
			inDst = true
		}
	}
	if !inDst {
		t.Fatalf("lease node %v is not in shard 1's partition %v", grant.Node, p.Partition(1))
	}
	if ctl.P2PMoves() != p2pBefore+1 {
		t.Fatalf("lease export did not ride the worker P2P path: %d → %d moves",
			p2pBefore, ctl.P2PMoves())
	}
	if node, ver, ok := ctl.Lease(x.ID); !ok || node != grant.Node || ver != grant.Version {
		t.Fatalf("controller lease record (%v, %d, %v) disagrees with grant %+v",
			node, ver, ok, grant)
	}
}

// The tentpole recovery property: shard 0 loses every local copy of a
// leased array (chaos kills the holding worker) and must republish the
// foreign replica as a recovery root — reads come back bit-identical,
// with no ErrDataLost.
func TestPlaneCrossShardLeaseRecovery(t *testing.T) {
	var chaos *core.ChaosFabric
	p := newTestPlane(t, 2, 4, func(inner core.Fabric) core.Fabric {
		chaos = core.NewChaosFabric(inner, core.ChaosOptions{
			// Worker 2 — the relu target below, so the holder of x's
			// committed tip — dies at its second launch: the
			// sacrificial CE that reveals the death.
			KillAtLaunch: map[cluster.NodeID]int{2: 2},
		})
		return chaos
	})
	ctl := p.Controllers[0]

	// fill(5) → relu leaves x's tip (value 5 everywhere) only on worker
	// 2: round-robin sends fill to worker 1 and relu to worker 2, and
	// relu's in-place write makes worker 2 the sole holder.
	x := planeChain(t, ctl)
	holder := ctl.Traces()[len(ctl.Traces())-1].Node
	if holder != 2 {
		t.Fatalf("scenario assumption broken: relu ran on %v, want worker 2", holder)
	}
	if _, err := p.Replicate(0, 1, x.ID); err != nil {
		t.Fatal(err)
	}

	// A sacrificial CE on a second array trips the scheduled kill on
	// worker 2. Its own dispatch fails over to worker 1; x's only local
	// copy dies with worker 2 and recovery must republish the lease.
	y, err := ctl.NewArray(memmodel.Float32, planeElems)
	if err != nil {
		t.Fatal(err)
	}
	n := core.ScalarRef(float64(planeElems))
	if _, err := ctl.Submit(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(y.ID), core.ScalarRef(1), n}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4 && chaos.Injected() == 0; i++ {
		if _, err := ctl.Submit(core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(y.ID), n}}); err != nil {
			t.Fatal(err)
		}
		if err := ctl.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos kill never fired; scenario is not exercising recovery")
	}
	if len(ctl.DeadWorkers()) == 0 {
		t.Fatal("controller never wrote the killed worker off")
	}

	// The read hits the loss, recovery republishes the lease replica,
	// and the bytes come back bit-identical.
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatalf("read of leased array after local loss: %v", err)
	}
	if ctl.Recoveries() < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (lease republish should have run)", ctl.Recoveries())
	}
	for i := 0; i < planeElems; i++ {
		if got := x.Buf.At(i); got != 5 {
			t.Fatalf("x[%d] = %v after recovery, want 5", i, got)
		}
	}
}

// Replicating to the same shard or out of range is rejected; leases of
// unknown arrays error instead of panicking.
func TestPlaneReplicateRejectsBadArgs(t *testing.T) {
	p := newTestPlane(t, 2, 4, nil)
	x := planeChain(t, p.Controllers[0])
	if _, err := p.Replicate(0, 0, x.ID); err == nil {
		t.Fatal("same-shard replicate accepted")
	}
	if _, err := p.Replicate(0, 5, x.ID); err == nil {
		t.Fatal("out-of-range replicate accepted")
	}
	if _, err := p.Replicate(1, 0, x.ID); err == nil {
		t.Fatal("lease of an array shard 1 never allocated accepted")
	}
}

// Satellite regression: PartitionFabric.Healthy used to answer from the
// full fleet while Workers() was partition-narrowed, so after shard 0
// retired a worker, shard 1's fabric still reported it healthy and
// cross-shard machinery could schedule against a drained node. The
// plane-wide retired set makes every shard's Healthy answer agree.
func TestPartitionFabricHealthyAfterRetire(t *testing.T) {
	p := newTestPlane(t, 2, 4, nil)
	w := p.Partition(0)[0]
	// Run a chain first so the retire path has real replicas to walk.
	planeChain(t, p.Controllers[0])
	if !p.pfs[0].Healthy(w) || !p.pfs[1].Healthy(w) {
		t.Fatalf("worker %v unhealthy before retire", w)
	}
	if err := p.RetireWorker(0, w); err != nil {
		t.Fatal(err)
	}
	// EVERY shard's fabric must agree the node is out...
	for s, pf := range p.pfs {
		if pf.Healthy(w) {
			t.Fatalf("shard %d still reports retired worker %v healthy", s, w)
		}
	}
	// ...while the partition view is unchanged: retirement is
	// membership, not re-partitioning.
	if got := p.pfs[0].Workers(); len(got) != len(p.Partition(0)) {
		t.Fatalf("retire changed the partition view: %v", got)
	}
	// Retiring through the wrong shard is rejected.
	if err := p.RetireWorker(1, w); err == nil {
		t.Fatal("retiring a foreign shard's worker succeeded")
	}
	// Re-activation restores health everywhere.
	if err := p.AddWorker(0, w); err != nil {
		t.Fatal(err)
	}
	for s, pf := range p.pfs {
		if !pf.Healthy(w) {
			t.Fatalf("shard %d reports re-added worker %v unhealthy", s, w)
		}
	}
	// A failed controller-side add must not flip the plane-wide mark:
	// double-adding errors and w stays healthy.
	if err := p.AddWorker(0, w); err == nil {
		t.Fatal("double add succeeded")
	}
	if !p.pfs[0].Healthy(w) {
		t.Fatal("failed add rolled back the health mark of an active worker")
	}
}

// The Restricted policy clamp (defense in depth behind the partition
// fabric) filters foreign candidates and keeps batch/stall forwarding.
func TestRestrictedPolicyClamps(t *testing.T) {
	allowed := []cluster.NodeID{3, 4}
	r := policy.Restrict(policy.NewRoundRobin(), allowed)
	req := policy.Request{Nodes: []policy.NodeInfo{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}}}
	for i := 0; i < 6; i++ {
		w := r.Assign(req)
		if w != 3 && w != 4 {
			t.Fatalf("restricted policy escaped its partition: %v", w)
		}
	}
	// No allowed candidate at all: clamp round-robin instead of
	// panicking or escaping.
	w := r.Assign(policy.Request{Nodes: []policy.NodeInfo{{ID: 7}}})
	if w != 3 && w != 4 {
		t.Fatalf("clamp fallback escaped: %v", w)
	}
	if r.NeedsDataView() {
		t.Fatal("round-robin needs no data view; wrapper must forward that")
	}
}

// asyncInner is a fabric that offers core.AsyncLauncher, for checking
// that the wrappers in this package hide it.
type asyncInner struct{ *core.LocalFabric }

func (asyncInner) StartLaunch(cluster.NodeID, core.Invocation, sim.VirtualTime,
	func(sim.VirtualTime, error)) error {
	return nil
}
func (asyncInner) FlushLaunches(cluster.NodeID) {}

// Neither wrapper a plane's fleet runs behind keeps a control channel's
// ordering guarantee itself, so neither may forward AsyncLauncher
// (core.Fabric's wrapper rule): absence selects the blocking path.
// core's TestWrapperFidelity checks that they forward everything else.
func TestWrappersDoNotForwardAsyncLauncher(t *testing.T) {
	var inner core.Fabric = asyncInner{core.NewLocalFabric(
		cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), false)}
	if _, ok := inner.(core.AsyncLauncher); !ok {
		t.Fatal("test fabric does not offer AsyncLauncher")
	}
	for name, wrapped := range map[string]core.Fabric{
		"ChaosFabric":     core.NewChaosFabric(inner, core.ChaosOptions{}),
		"PartitionFabric": NewPartitionFabric(inner, inner.Workers()),
	} {
		if _, ok := wrapped.(core.AsyncLauncher); ok {
			t.Errorf("%s forwards AsyncLauncher", name)
		}
	}
}
