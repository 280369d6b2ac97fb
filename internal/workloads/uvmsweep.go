package workloads

// The workload-level oversubscription sweep — the end-to-end harness
// behind `groutbench -fig uvmbench`, and the reference the repository
// benchmark's oversub-sweep cells must equal. Where
// sweep.go drives a synthetic access pattern on one simulated GPU, this
// driver runs the *real* UVMBench-style workloads across three axes:
//
//   footprint   0.5x → 4x of one worker's device memory
//   policy      prefetch/evict combination installed on every worker
//   fleet size  1, 2, 4 workers
//
// Every cell is a fresh cost-only fleet. The 1-worker column reproduces
// the paper's Figure-1 cliff per workload; the 2- and 4-worker columns
// show transparent scale-out flattening it, because min-transfer-time
// spreads the partitions and per-node pressure drops to factor/workers.

import (
	"fmt"
	"sort"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

// UVMSweepPoint is one cell of the workload sweep.
type UVMSweepPoint struct {
	// Workload is the suite key ("bfs", "spmv", ...).
	Workload string `json:"workload"`
	// Factor is footprint over one worker's device memory.
	Factor float64 `json:"factor"`
	// Workers is the fleet size the cell ran on.
	Workers int `json:"workers"`
	// Prefetch and Evict name the policy combination on every worker.
	Prefetch string `json:"prefetch"`
	Evict    string `json:"evict"`
	// MakespanNs is the modeled end-to-end makespan of the workload.
	MakespanNs int64 `json:"makespan_ns"`
	// CEs is the number of computational elements the build submitted.
	CEs int `json:"ces"`
}

// UVMSweepConfig parameterizes UVMBenchSweep. The zero value sweeps the
// full suite over the default ladder at 1/2/4 workers with the baseline
// eager+lru policy combo.
type UVMSweepConfig struct {
	// Workloads are suite keys from UVMSuite. Zero-length selects all,
	// sorted by name.
	Workloads []string
	// Factors is the footprint ladder (x device memory of ONE worker).
	Factors []float64
	// Workers are the fleet sizes. Zero-length selects 1, 2, 4.
	Workers []int
	// Combos are (prefetch, evict) pairs installed on every worker.
	// Zero-length selects the eager+lru baseline only; pass
	// AllPolicyCombos() for the full policy axis.
	Combos [][2]string
	// Device overrides the per-worker GPU (default one V100 per worker,
	// so the oversubscription denominator is 16 GiB).
	Device *gpusim.DeviceSpec
	// HostMemory overrides per-worker host memory (default 512 GiB).
	HostMemory memmodel.Bytes
	// Blocks overrides the partition count (default 8, so min-transfer-
	// time has partitions to spread at every fleet size).
	Blocks int
	// Iterations overrides each workload's iteration default.
	Iterations int
}

// DefaultSweepWorkers is the fleet-size axis of the workload sweep.
func DefaultSweepWorkers() []int { return []int{1, 2, 4} }

func (c UVMSweepConfig) withDefaults() UVMSweepConfig {
	if len(c.Workloads) == 0 {
		for name := range UVMSuite() {
			c.Workloads = append(c.Workloads, name)
		}
		sort.Strings(c.Workloads)
	}
	if len(c.Factors) == 0 {
		c.Factors = DefaultSweepFactors()
	}
	if len(c.Workers) == 0 {
		c.Workers = DefaultSweepWorkers()
	}
	if len(c.Combos) == 0 {
		c.Combos = [][2]string{{"eager", "lru"}}
	}
	if c.Device == nil {
		d := gpusim.V100Spec("uvm/gpu")
		c.Device = &d
	}
	if c.HostMemory <= 0 {
		c.HostMemory = 512 * memmodel.GiB
	}
	if c.Blocks <= 0 {
		c.Blocks = 8
	}
	return c
}

// UVMBenchSweep measures one UVMSweepPoint per (workload, factor,
// workers, combo) cell, each on a fresh cost-only fleet.
func UVMBenchSweep(cfg UVMSweepConfig) ([]UVMSweepPoint, error) {
	cfg = cfg.withDefaults()
	suite := UVMSuite()
	var out []UVMSweepPoint
	for _, name := range cfg.Workloads {
		w, ok := suite[name]
		if !ok {
			return nil, fmt.Errorf("uvmsweep: unknown workload %q", name)
		}
		for _, combo := range cfg.Combos {
			for _, workers := range cfg.Workers {
				for _, factor := range cfg.Factors {
					pt, err := uvmSweepCell(cfg, w, factor, workers, combo)
					if err != nil {
						return nil, fmt.Errorf("uvmsweep %s %.1fx %dw %s+%s: %w",
							name, factor, workers, combo[0], combo[1], err)
					}
					out = append(out, pt)
				}
			}
		}
	}
	return out, nil
}

// sweepFleetSpec builds the sweep's cluster: `workers` nodes with one
// swept GPU each, on the paper's OCI network profile.
func sweepFleetSpec(cfg UVMSweepConfig, workers int) cluster.Spec {
	s := cluster.Spec{
		ControllerEgressBW:  1e9,
		ControllerIngressBW: 1e9,
		WorkerNICBW:         500e6,
		Latency:             sim.VirtualTime(250_000),
	}
	for i := 0; i < workers; i++ {
		dev := *cfg.Device
		dev.Name = fmt.Sprintf("uvm%d/gpu0", i+1)
		s.Workers = append(s.Workers, gpusim.NodeSpec{
			Name:       fmt.Sprintf("uvm%d", i+1),
			Devices:    []gpusim.DeviceSpec{dev},
			HostMemory: cfg.HostMemory,
		})
	}
	return s
}

func uvmSweepCell(cfg UVMSweepConfig, w *Workload, factor float64, workers int, combo [2]string) (UVMSweepPoint, error) {
	clu := cluster.New(sweepFleetSpec(cfg, workers))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	for _, id := range fab.Workers() {
		if err := fab.Runtime(id).Node().UseMemoryPolicies(combo[0], combo[1]); err != nil {
			return UVMSweepPoint{}, err
		}
	}
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{})
	defer ctl.Close()

	s := &AsyncGrout{Ctl: ctl}
	footprint := memmodel.Bytes(factor * float64(cfg.Device.Memory))
	p := Params{Footprint: footprint, Blocks: cfg.Blocks, Iterations: cfg.Iterations}
	if err := w.Build(s, p); err != nil {
		return UVMSweepPoint{}, err
	}
	if err := s.Wait(); err != nil {
		return UVMSweepPoint{}, err
	}
	return UVMSweepPoint{
		Workload:   w.Name,
		Factor:     factor,
		Workers:    workers,
		Prefetch:   combo[0],
		Evict:      combo[1],
		MakespanNs: int64(s.Elapsed()),
		CEs:        ctl.Graph().Size(),
	}, nil
}

// UVMCliffKey identifies one (workload, combo, fleet-size) series of the
// sweep.
type UVMCliffKey struct {
	Workload string
	Prefetch string
	Evict    string
	Workers  int
}

// UVMCliffs locates each series' oversubscription cliff: the lowest
// factor whose footprint-normalized makespan (makespan/factor — the
// workloads do proportionally more work at bigger footprints) exceeds
// 2.5x the series' cheapest rung. Series that never left the flat regime
// within the ladder are absent — their cliff sits past the last rung.
func UVMCliffs(pts []UVMSweepPoint) map[UVMCliffKey]float64 {
	type rung struct {
		factor float64
		slope  float64
	}
	series := make(map[UVMCliffKey][]rung)
	for _, p := range pts {
		if p.Factor <= 0 {
			continue
		}
		k := UVMCliffKey{p.Workload, p.Prefetch, p.Evict, p.Workers}
		series[k] = append(series[k], rung{p.Factor, float64(p.MakespanNs) / p.Factor})
	}
	cliffs := make(map[UVMCliffKey]float64)
	for k, rungs := range series {
		sort.Slice(rungs, func(i, j int) bool { return rungs[i].factor < rungs[j].factor })
		base := rungs[0].slope
		if base <= 0 {
			continue
		}
		for _, r := range rungs {
			if r.slope > 2.5*base {
				cliffs[k] = r.factor
				break
			}
		}
	}
	return cliffs
}
