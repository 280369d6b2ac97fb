package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"grout/internal/workloads"
)

// The golden file is generated from the code; this anchors it to the
// paper result the repository recorded before the benchmark existed:
// every cell of BENCH_workloads.json's "current" table (5 workloads ×
// eager+lru / adaptive+working-set, default sweep) must match the golden
// cell at the millisecond rounding that file was written with.
func TestGoldenMatchesRecordedPaperResult(t *testing.T) {
	data, err := os.ReadFile("../BENCH_workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded struct {
		Current map[string]map[string]map[string]map[string]struct {
			MakespanMs float64 `json:"makespan_ms"`
			CEs        int     `json:"ces"`
		} `json:"current"`
	}
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatal(err)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	compared := 0
	for workload, combos := range recorded.Current {
		for combo, fleets := range combos {
			for fleet, factors := range fleets {
				for factor, want := range factors {
					key := fmt.Sprintf("%s/%s/%s/%s", workload, combo, fleet, factor)
					got, ok := golden[key]
					if !ok {
						t.Errorf("%s: recorded in BENCH_workloads.json, missing from the golden file", key)
						continue
					}
					compared++
					if ms := float64(got.MakespanNs) / 1e6; math.Abs(ms-want.MakespanMs) > 0.5 || got.CEs != want.CEs {
						t.Errorf("%s: golden %.3f ms / %d CEs, recorded %.0f ms / %d CEs",
							key, ms, got.CEs, want.MakespanMs, want.CEs)
					}
				}
			}
		}
	}
	if compared != 5*2*3*6 {
		t.Errorf("compared %d cells, want the recorded table's 180", compared)
	}
}

func TestGoldenCoversTheWholeGrid(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	grid := sweepGrid(false)
	if len(grid) != 8*6*3*9 || len(golden) != len(grid) {
		t.Fatalf("grid has %d cells, golden %d, want 1296 each", len(grid), len(golden))
	}
	for _, c := range grid {
		g, ok := golden[cellKey(c)]
		if !ok || g.MakespanNs <= 0 || g.CEs <= 0 {
			t.Errorf("%s: missing or empty in the golden file", cellKey(c))
		}
	}
	if first := grid[0]; first.Prefetch != "eager" || first.Evict != "lru" {
		t.Errorf("the grid must start with the eager+lru baseline (tiny runs use only it), got %s", cellKey(first))
	}
}

// The benchmark builds its cells from public constructors so it can wrap
// their fabrics and read their counters; they must stay the cells
// workloads.UVMBenchSweep builds.
func TestCellsMatchUVMBenchSweep(t *testing.T) {
	cfg := workloads.UVMSweepConfig{
		Workloads: []string{"bfs", "triad"},
		Factors:   []float64{0.5, 2.0},
		Workers:   []int{1, 2},
		Combos:    [][2]string{{"eager", "lru"}, {"adaptive", "working-set"}},
	}
	want, err := workloads.UVMBenchSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	suite := workloads.UVMSuite()
	for _, w := range want {
		c := w
		c.MakespanNs, c.CEs = 0, 0
		run, err := runCell(c, suite[c.Workload], nil, nil, 0)
		if run.ctl != nil {
			run.ctl.Close()
		}
		if err != nil {
			t.Fatalf("%s: %v", cellKey(c), err)
		}
		if run.cell != w {
			t.Errorf("%s: benchmark cell %+v, UVMBenchSweep %+v", cellKey(c), run.cell, w)
		}
	}
}
