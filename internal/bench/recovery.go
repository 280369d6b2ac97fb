// Recovery overhead measurement (DESIGN.md §5.4): the same axpy chain is
// run fault-free and under a chaos fabric that kills the worker holding
// the chain's only committed copy mid-stream, so the run pays a failover
// plus a lineage replay. The two runs must end bit-identical; the report
// compares their wall-clock and isolates the controller time spent inside
// recovery.
package bench

import (
	"fmt"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// RecoveryReport compares a clean run with a chaos-kill run of the same
// CE chain.
type RecoveryReport struct {
	// CEs is the chain length (axpy launches after the two fills).
	CEs int
	// KillAt is the victim worker's 1-based launch index of the kill.
	KillAt int
	// CleanWall and FaultWall are the two runs' wall-clock times.
	CleanWall, FaultWall time.Duration
	// RecoveryTime is the controller wall-clock spent inside lineage
	// recovery during the faulted run.
	RecoveryTime time.Duration
	// Recoveries and Failovers are the faulted run's controller counters.
	Recoveries, Failovers int
}

// OverheadPct is the faulted run's wall-clock overhead over clean.
func (r RecoveryReport) OverheadPct() float64 {
	if r.CleanWall <= 0 {
		return 0
	}
	return 100 * (r.FaultWall - r.CleanWall).Seconds() / r.CleanWall.Seconds()
}

// recoveryElems keeps the numeric kernels cheap relative to the
// scheduling and replay work being measured.
const recoveryElems = int64(4096)

// RecoveryOverhead runs the chain clean and faulted (worker 2 killed
// just as the chain's consumer launches there, with the chain tip's only
// copy) and checks the results match exactly.
func RecoveryOverhead(ces int) (RecoveryReport, error) {
	if ces < 8 {
		ces = 8
	}
	ces &^= 1 // even, so the chain tip commits on worker 2
	killAt := (ces + 4) / 2
	clean, cleanWall, _, err := recoveryRun(ces, 0)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("clean run: %w", err)
	}
	faulted, faultWall, ctl, err := recoveryRun(ces, killAt)
	if err != nil {
		return RecoveryReport{}, fmt.Errorf("faulted run: %w", err)
	}
	for i := range clean {
		if clean[i] != faulted[i] {
			return RecoveryReport{}, fmt.Errorf(
				"recovered y[%d] = %v, clean run has %v", i, faulted[i], clean[i])
		}
	}
	if ctl.Failovers() < 1 || ctl.Recoveries() < 1 {
		return RecoveryReport{}, fmt.Errorf(
			"chaos kill did not trigger recovery (failovers %d, recoveries %d)",
			ctl.Failovers(), ctl.Recoveries())
	}
	return RecoveryReport{
		CEs: ces, KillAt: killAt,
		CleanWall: cleanWall, FaultWall: faultWall,
		RecoveryTime: ctl.RecoveryTime(),
		Recoveries:   ctl.Recoveries(),
		Failovers:    ctl.Failovers(),
	}, nil
}

// recoveryRun builds an in-place chain whose committed tip hops workers
// with every step — fill(ones,1), fill(x,1), then ces× axpy(x,ones,1)
// (x += 1 each step, sole copy on the last writer) — then fill(z,3) and
// the consumer axpy(z,x,2). Round-robin over two workers puts the chain
// tip AND the consumer on worker 2, so killing worker 2 at the consumer
// launch loses the tip and forces a full-chain replay on worker 1.
// Returns z's final values (3 + 2*(1+ces)).
func recoveryRun(ces, killAt int) ([]float64, time.Duration, *core.Controller, error) {
	clu := cluster.New(cluster.PaperSpec(2))
	var fab core.Fabric = core.NewLocalFabric(clu, kernels.StdRegistry(), true)
	if killAt > 0 {
		fab = core.NewChaosFabric(fab, core.ChaosOptions{
			KillAtLaunch: map[cluster.NodeID]int{2: killAt},
		})
	}
	ctl := core.NewController(fab, policy.NewRoundRobin(),
		core.Options{Numeric: true, Failover: true})
	defer ctl.Close() // its counters stay readable

	start := time.Now()
	n := recoveryElems
	nArg := core.ScalarRef(float64(n))
	mk := func() (*core.GlobalArray, error) { return ctl.NewArray(memmodel.Float32, n) }
	ones, err := mk()
	if err != nil {
		return nil, 0, nil, err
	}
	x, err := mk()
	if err != nil {
		return nil, 0, nil, err
	}
	z, err := mk()
	if err != nil {
		return nil, 0, nil, err
	}
	launch := func(kernel string, args ...core.ArgRef) error {
		_, err := ctl.Launch(core.Invocation{Kernel: kernel, Args: args})
		return err
	}
	if err := launch("fill", core.ArrRef(ones.ID), core.ScalarRef(1), nArg); err != nil {
		return nil, 0, nil, err
	}
	if err := launch("fill", core.ArrRef(x.ID), core.ScalarRef(1), nArg); err != nil {
		return nil, 0, nil, err
	}
	for i := 0; i < ces; i++ {
		if err := launch("axpy", core.ArrRef(x.ID), core.ArrRef(ones.ID),
			core.ScalarRef(1), nArg); err != nil {
			return nil, 0, nil, err
		}
	}
	if err := launch("fill", core.ArrRef(z.ID), core.ScalarRef(3), nArg); err != nil {
		return nil, 0, nil, err
	}
	if err := launch("axpy", core.ArrRef(z.ID), core.ArrRef(x.ID),
		core.ScalarRef(2), nArg); err != nil {
		return nil, 0, nil, err
	}
	if _, err := ctl.HostRead(z.ID); err != nil {
		return nil, 0, nil, err
	}
	wall := time.Since(start)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = z.Buf.At(i)
	}
	return vals, wall, ctl, nil
}
