package core

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// runSteeringScenario reproduces the oversubscription trap end to end: an
// 8 GiB array lands on worker 1, then worker 1's UVM allocation balloons
// past the storm threshold (100 GiB of ballast on a 32 GiB node). The
// next kernel over the array is launched and the worker that executed it
// is returned. Pure transfer-time cost keeps the kernel on worker 1 (the
// data is there, transfer cost zero); a fault-aware policy must eat the
// network transfer and steer to idle worker 2. wrap, when non-nil, wraps
// the fabric the controller sees.
func runSteeringScenario(t *testing.T, pol policy.Policy, wrap func(Fabric) Fabric) cluster.NodeID {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(2))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), false)
	var seen Fabric = fab
	if wrap != nil {
		seen = wrap(fab)
	}
	ctl := NewController(seen, pol, Options{})

	const n = int64(1 << 31) // 8 GiB of Float32
	x, err := ctl.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	// fill is a write-only full overwrite: both policies tie-break it onto
	// worker 1, making worker 1 the data holder.
	if _, err := ctl.Launch(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if !x.UpToDateOn(1) {
		t.Fatalf("setup: fill did not land on worker 1: %v", x.Locations())
	}

	// Worker 1 oversubscribes: 100 GiB of live UVM allocation against
	// 32 GiB of device memory — allocation pressure 3.4, deep in the
	// storm regime for any substantial kernel.
	if _, err := fab.Runtime(1).Node().Alloc(100 * memmodel.GiB); err != nil {
		t.Fatal(err)
	}

	if _, err := ctl.Launch(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	// relu writes x, so exactly the executing worker is now up to date.
	for _, w := range fab.Workers() {
		if x.UpToDateOn(w) {
			return w
		}
	}
	t.Fatal("relu result registered on no worker")
	return 0
}

// TestStallAwareSteeringEndToEnd is the tentpole acceptance scenario: the
// controller, consuming predicted fault rates through the fabric, steers
// a launch away from the oversubscribed worker that pure transfer-time
// cost would have chosen.
func TestStallAwareSteeringEndToEnd(t *testing.T) {
	if got := runSteeringScenario(t, policy.NewMinTransferTime(policy.Medium), nil); got != 1 {
		t.Fatalf("min-transfer-time control pick = %v, want trapped on worker 1", got)
	}
	if got := runSteeringScenario(t, policy.NewMinStallTime(), nil); got != 2 {
		t.Fatalf("min-stall-time pick = %v, want steered to worker 2", got)
	}
}

// TestPipelinedStallQueriesRaceFree: Submit returns before its CE runs,
// so the scheduler asks the fabric for stall predictions while the
// dispatcher goroutine allocates the previous CEs' arrays on the same
// workers. Every CE here allocates a fresh 4 GiB array, large enough that
// PredictStall reads the node's allocation total, so under -race this
// fails unless LocalFabric serialises the two. Host memory is unbounded so min-stall-time can pile
// every array onto one worker.
func TestPipelinedStallQueriesRaceFree(t *testing.T) {
	spec := cluster.PaperSpec(4)
	for i := range spec.Workers {
		spec.Workers[i].HostMemory = 1 << 50
	}
	fab := NewLocalFabric(cluster.New(spec), kernels.StdRegistry(), false)
	ctl := NewController(fab, policy.NewMinStallTime(), Options{})
	const n = int64(1 << 30) // 4 GiB of Float32
	for i := 0; i < 400; i++ {
		x, err := ctl.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Submit(Invocation{Kernel: "fill",
			Args: []ArgRef{ArrRef(x.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
}
