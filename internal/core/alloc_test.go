package core

import (
	"testing"

	"grout/internal/memmodel"
	"grout/internal/policy"
)

// What admitting and dispatching one CE may allocate on a warmed
// controller over a cost-only LocalFabric. Admitted jobs are recycled, a
// Pending's channel is only made for a CE
// someone waits on singly, and the DAGs and the UVM launch step allocate
// nothing; what is left is the Pending the caller owns. A built kernel
// (the sweep's mini-CUDA programs) adds nothing to it. A stdlib kernel
// adds its access analysis: AccessOf returns a fresh list, which
// Def.Access pads to the signature's length — two allocations, once in
// admission and once in the worker runtime.
func TestSubmitAllocBudget(t *testing.T) {
	const perRun = 100
	for _, tc := range []struct {
		name   string
		budget float64
		invs   func(t *testing.T, ctl *Controller, x, y ArgRef) []Invocation
	}{
		{"built", 1, func(t *testing.T, ctl *Controller, x, y ArgRef) []Invocation {
			const src = `__global__ void twice(float* y, const float* x, int n) {
				int i = blockIdx.x * blockDim.x + threadIdx.x;
				if (i < n) { y[i] = 2.0f * x[i]; }
			}`
			def, err := ctl.BuildKernel(src, "pointer float, const pointer float, sint32")
			if err != nil {
				t.Fatal(err)
			}
			n := ScalarRef(1 << 20)
			return []Invocation{
				{Kernel: def.Name, Grid: 4096, Block: 256, Args: []ArgRef{y, x, n}},
				{Kernel: def.Name, Grid: 4096, Block: 256, Args: []ArgRef{x, y, n}},
			}
		}},
		{"stdlib", 5, func(t *testing.T, ctl *Controller, x, y ArgRef) []Invocation {
			return []Invocation{
				{Kernel: "relu", Grid: 1, Block: 1, Args: []ArgRef{x, ScalarRef(1 << 20)}},
				{Kernel: "axpy", Grid: 1, Block: 1, Args: []ArgRef{y, x, ScalarRef(2), ScalarRef(1 << 20)}},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, _ := newSystem(t, 2, policy.NewMinTransferTime(policy.Medium), false)
			defer ctl.Close()
			x, err := ctl.NewArray(memmodel.Float32, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ctl.NewArray(memmodel.Float32, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			invs := tc.invs(t, ctl, ArrRef(x.ID), ArrRef(y.ID))
			run := func() {
				for i := 0; i < perRun; i++ {
					if _, err := ctl.Submit(invs[i%len(invs)]); err != nil {
						t.Fatal(err)
					}
				}
				if err := ctl.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			// Warm past the retirement horizon, so both DAGs recycle.
			for i := 0; i < 60; i++ {
				run()
			}
			per := testing.AllocsPerRun(20, run) / perRun
			t.Logf("%.3f allocations per CE", per)
			if per > tc.budget {
				t.Errorf("%.2f allocations per CE, budget %v", per, tc.budget)
			}
		})
	}
}
