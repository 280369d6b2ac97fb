package bench

// The workload-level oversubscription figure (DESIGN.md §5.10): where
// FigOversub sweeps a synthetic access pattern on one simulated GPU,
// FigUVMBench runs the UVMBench-style workload suite end to end across
// the footprint ladder at 1, 2 and 4 workers, per prefetch+evict combo.
// One series per fleet size makes the paper's claim visible in a single
// table: the 1-worker column falls off the Figure-1 cliff and the wider
// fleets flatten it. `groutbench -fig uvmbench` prints it, and the
// figure golden pins it.

import (
	"fmt"
	"sort"

	"grout/internal/workloads"
)

// FigUVMBench sweeps one workload across the footprint ladder for every
// requested fleet size and returns one series per (combo, workers) pair
// (X = footprint over one worker's device memory, Value = modeled
// makespan seconds), plus the raw points for cliff reporting.
func FigUVMBench(workload string, cfg workloads.UVMSweepConfig) ([]Series, []workloads.UVMSweepPoint, error) {
	cfg.Workloads = []string{workload}
	pts, err := workloads.UVMBenchSweep(cfg)
	if err != nil {
		return nil, nil, err
	}
	bySeries := make(map[string]*Series)
	var order []string
	for _, p := range pts {
		name := fmt.Sprintf("%s+%s/%dw", p.Prefetch, p.Evict, p.Workers)
		s, ok := bySeries[name]
		if !ok {
			s = &Series{Name: name}
			bySeries[name] = s
			order = append(order, name)
		}
		s.Points = append(s.Points, Point{X: p.Factor, Value: float64(p.MakespanNs) / 1e9})
	}
	series := make([]Series, 0, len(order))
	for _, name := range order {
		series = append(series, *bySeries[name])
	}
	return series, pts, nil
}

// FmtUVMCliffs renders the per-fleet-size cliff summary of one
// workload's sweep as aligned text lines: where the makespan-per-factor
// slope leaves the flat regime at 1 worker, and where (or whether) it
// does at 2 and 4.
func FmtUVMCliffs(pts []workloads.UVMSweepPoint, maxFactor float64) string {
	cliffs := workloads.UVMCliffs(pts)
	keys := make([]workloads.UVMCliffKey, 0, len(pts))
	seen := make(map[workloads.UVMCliffKey]bool)
	for _, p := range pts {
		k := workloads.UVMCliffKey{Workload: p.Workload, Prefetch: p.Prefetch,
			Evict: p.Evict, Workers: p.Workers}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Prefetch != b.Prefetch {
			return a.Prefetch < b.Prefetch
		}
		if a.Evict != b.Evict {
			return a.Evict < b.Evict
		}
		return a.Workers < b.Workers
	})
	out := ""
	for _, k := range keys {
		label := fmt.Sprintf("%s %s+%s %dw", k.Workload, k.Prefetch, k.Evict, k.Workers)
		if c, ok := cliffs[k]; ok {
			out += fmt.Sprintf("  %-32s cliff at %.1fx\n", label, c)
		} else {
			out += fmt.Sprintf("  %-32s flat through %.1fx\n", label, maxFactor)
		}
	}
	return out
}
