package core_test

import (
	"fmt"
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/shard"
)

// fleetWrappers builds the two wrappers a fleet runs behind, each with
// nothing to add: no faults, and the whole fleet as the partition.
var fleetWrappers = map[string]func(core.Fabric) core.Fabric{
	"ChaosFabric": func(f core.Fabric) core.Fabric {
		return core.NewChaosFabric(f, core.ChaosOptions{})
	},
	"PartitionFabric": func(f core.Fabric) core.Fabric {
		return shard.NewPartitionFabric(f, f.Workers())
	},
}

// TestWrapperFidelity: a wrapper that adds nothing must leave the
// controller's program unchanged. Over a LocalFabric it keeps the
// stall-aware pick; over a fabric that cannot broadcast kernels it builds and runs
// a kernel exactly as the bare controller does.
func TestWrapperFidelity(t *testing.T) {
	if want := core.RunSteeringScenario(t, policy.NewMinStallTime(), nil); want != 2 {
		t.Fatalf("bare min-stall-time pick = %v, want worker 2", want)
	}
	for name, wrap := range fleetWrappers {
		if got := core.RunSteeringScenario(t, policy.NewMinStallTime(), wrap); got != 2 {
			t.Errorf("%s: pick %v, bare fabric 2", name, got)
		}
	}

	want := buildAndRun(t, nil)
	for name, wrap := range fleetWrappers {
		if got := buildAndRun(t, wrap); got != want {
			t.Errorf("%s over a fabric without KernelBuilder: %v, bare fabric %v", name, got, want)
		}
	}
}

// buildAndRun builds a runtime-compiled kernel through a controller over
// a LocalFabric stripped of every optional interface (wrapped by wrap
// when non-nil), launches it, and reports the outcome.
func buildAndRun(t *testing.T, wrap func(core.Fabric) core.Fabric) string {
	t.Helper()
	reg := kernels.NewRegistry()
	var fab core.Fabric = struct{ core.Fabric }{
		core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), reg, true)}
	if wrap != nil {
		fab = wrap(fab)
	}
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Registry: reg})
	defer ctl.Close()
	const src = `
extern "C" __global__ void triple(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = 3.0 * x[i]; }
}`
	def, err := ctl.BuildKernel(src, "pointer float, sint32")
	if err != nil {
		return "build: " + err.Error()
	}
	x, err := ctl.NewArray(memmodel.Float32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		x.Buf.Set(i, float64(i+1))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(core.Invocation{Kernel: def.Name, Grid: 1, Block: 4,
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(4)}}); err != nil {
		return "launch: " + err.Error()
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(def.Name, " ", []float64{x.Buf.At(0), x.Buf.At(1), x.Buf.At(2), x.Buf.At(3)})
}
