package shard

// Plane-level tests: partitioning invariants, placement that never
// leaves a shard's partition, and worker retirement through the owning
// shard's controller.

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
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

// Partitions are disjoint and cover the fleet.
func TestPlanePartitions(t *testing.T) {
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

// A worker is retired and re-added through the shard that owns it: once
// retired, no shard places a CE on it; the other shard refuses to retire
// or add it; and re-adding it makes it a placement target again.
func TestPlaneRetireThroughOwningShard(t *testing.T) {
	p := newTestPlane(t, 2, 4, nil)
	w := p.Partition(0)[0]
	// Run a chain first so the retire path has real replicas to walk.
	planeChain(t, p.Controllers[0])
	if err := p.Controllers[0].RetireWorker(w); err != nil {
		t.Fatal(err)
	}
	placedOn := func(ctl *core.Controller, from int) bool {
		for _, tr := range ctl.Traces()[from:] {
			if tr.Node == w {
				return true
			}
		}
		return false
	}
	for s, ctl := range p.Controllers {
		from := len(ctl.Traces())
		planeChain(t, ctl)
		if placedOn(ctl, from) {
			t.Fatalf("shard %d placed a CE on retired worker %v", s, w)
		}
	}
	if err := p.Controllers[1].RetireWorker(w); err == nil {
		t.Fatal("retiring a foreign shard's worker succeeded")
	}
	if err := p.Controllers[1].AddWorker(w); err == nil {
		t.Fatal("adding a foreign shard's worker succeeded")
	}
	if err := p.Controllers[0].AddWorker(w); err != nil {
		t.Fatal(err)
	}
	if err := p.Controllers[0].AddWorker(w); err == nil {
		t.Fatal("double add succeeded")
	}
	ctl := p.Controllers[0]
	from := len(ctl.Traces())
	for i := 0; i < 2; i++ {
		planeChain(t, ctl)
	}
	if !placedOn(ctl, from) {
		t.Fatalf("re-added worker %v never received a CE", w)
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
