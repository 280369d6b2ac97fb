package bench

// The figure list: `groutbench -fig` prints from it, and the golden test
// pins every simulated figure on it (testdata/figures.golden, and the
// printed tables in EXPERIMENTS.md). A figure added here is printed and
// pinned; there is no second list to forget.

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"grout/internal/memmodel"
	"grout/internal/workloads"
)

// Figure is one of groutbench's figures.
type Figure struct {
	// Name is its -fig value.
	Name string
	// Simulated figures report modeled quantities only, so their output
	// is deterministic and the golden pins every value. The others time
	// real controller code on the wall clock.
	Simulated bool
	// tables regenerates the figure; ces is the CE stream length of the
	// wall-clock figures.
	tables func(ces int) ([]table, error)
}

// Figures lists every figure in the order `groutbench -fig all` prints
// them.
var Figures = []Figure{
	{"1", true, func(int) ([]table, error) {
		return []table{seriesTable{"Fig 1: Black-Scholes execution time (s) on one node vs input size",
			"size GiB ->", "%.2f", []Series{Fig1()}}}, nil
	}},
	{"5", true, func(int) ([]table, error) {
		t := "Fig 5: workload CE-dependency DAGs (Graphviz DOT)\n"
		dags := Fig5DAGs()
		for _, name := range []string{"mle", "cg", "mv"} {
			t += fmt.Sprintf("// ---- %s ----\n%s\n", name, dags[name])
		}
		return []table{text(t)}, nil
	}},
	{"6a", true, func(int) ([]table, error) {
		return []table{seriesTable{"Fig 6a: single-node slowdown vs the 4 GiB run (GrCUDA baseline)",
			"size GiB ->", "%.1f", Fig6a()}}, nil
	}},
	{"6b", true, func(int) ([]table, error) {
		return []table{seriesTable{"Fig 6b: GrOUT two-node slowdown vs the 4 GiB run (vector-step)",
			"size GiB ->", "%.1f", Fig6b()}}, nil
	}},
	{"7", true, func(int) ([]table, error) {
		return []table{seriesTable{"Fig 7: GrOUT (2 nodes) speedup over single node per oversubscription factor",
			"factor ->", "%.2f", Fig7()}}, nil
	}},
	{"8", true, func(int) ([]table, error) {
		return []table{fig8Table(Fig8())}, nil
	}},
	{"9", false, func(ces int) ([]table, error) {
		return []table{seriesTable{"Fig 9: controller scheduling overhead per CE (wall-clock µs) vs node count",
			"nodes ->", "%.1f", Fig9(ces)}}, nil
	}},
	{"window", false, func(ces int) ([]table, error) {
		return []table{seriesTable{"Submission paths: caller-blocked wall-clock per CE (µs) — serial vs pipelined",
			"nodes ->", "%.1f", Fig9Compare(ces)}}, nil
	}},
	{"ablation", true, func(int) ([]table, error) {
		m, s := AblationStreamOverlap(16 * memmodel.GiB)
		return []table{
			seriesTable{"Ablation: hand-tuned UVM (advise+prefetch) vs scale-out — BS, seconds",
				"size GiB ->", "%.2f", AblationHandTuning()},
			overlapTable{m, s},
		}, nil
	}},
	{"whatif", true, func(int) ([]table, error) {
		return []table{
			seriesTable{"What-if: BS on one node of each GPU generation (seconds)",
				"size GiB ->", "%.2f", WhatIfHardware()},
			text("(-1 = footprint exceeds the node's host memory: allocation impossible)\n" +
				"scale-up moves the knee (V100: 32 GiB/node, A100: 80 GiB/node); it does not remove it\n"),
		}, nil
	}},
	{"scaling", true, func(int) ([]table, error) {
		var series []Series
		for _, w := range []string{"mle", "cg", "mv"} {
			series = append(series, StrongScaling(w, 128*memmodel.GiB, []int{1, 2, 4, 8, 16}))
		}
		return []table{seriesTable{"Strong scaling: execution time (s) at 128 GiB vs node count",
			"nodes ->", "%.1f", series}}, nil
	}},
	{"oversub", true, func(int) ([]table, error) {
		factors := workloads.DefaultSweepFactors()
		var ts []table
		for _, pattern := range workloads.AllPatterns() {
			series, pts, err := FigOversub(pattern)
			if err != nil {
				return nil, err
			}
			ts = append(ts,
				seriesTable{fmt.Sprintf("Oversubscription sweep (%s): modeled seconds per launch per prefetch+evict combo", pattern),
					"factor ->", "%.2f", series},
				text(fmt.Sprintf("Cliff per combo (%s):\n%s\n", pattern,
					FmtOversubCliffs(pts, factors[len(factors)-1]))))
		}
		return ts, nil
	}},
	{"uvmbench", true, func(int) ([]table, error) {
		factors := workloads.DefaultSweepFactors()
		var ts []table
		for _, name := range []string{"spmv", "bfs", "pagerank", "triad", "kmeans"} {
			series, pts, err := FigUVMBench(name, workloads.UVMSweepConfig{})
			if err != nil {
				return nil, err
			}
			ts = append(ts,
				seriesTable{fmt.Sprintf("UVMBench %s: modeled makespan (s) vs footprint over one worker's device memory", name),
					"factor ->", "%.2f", series},
				text(fmt.Sprintf("Cliff per fleet size (%s):\n%s\n", name,
					FmtUVMCliffs(pts, factors[len(factors)-1]))))
		}
		return ts, nil
	}},
	{"recovery", false, func(ces int) ([]table, error) {
		rep, err := RecoveryOverhead(ces)
		if err != nil {
			return nil, err
		}
		return []table{text(fmt.Sprintf("Recovery: lineage replay after killing the chain tip's only holder\n"+
			"  workload: in-place axpy chain of %d CEs over 2 workers; worker 2\n"+
			"  killed at its launch #%d with the sole copy of the chain tip\n"+
			"  clean run wall-clock:   %10v\n"+
			"  faulted run wall-clock: %10v  (%d failover(s), %d array(s) recovered)\n"+
			"  controller time inside recovery: %v\n"+
			"  overhead vs clean: %.1f%%  (results verified bit-identical)\n",
			rep.CEs, rep.KillAt,
			rep.CleanWall.Round(time.Microsecond),
			rep.FaultWall.Round(time.Microsecond),
			rep.Failovers, rep.Recoveries,
			rep.RecoveryTime.Round(time.Microsecond),
			rep.OverheadPct()))}, nil
	}},
}

// Print regenerates the figure and writes it as groutbench prints it.
func (f Figure) Print(w io.Writer, ces int) error {
	ts, err := f.tables(ces)
	if err != nil {
		return err
	}
	for _, t := range ts {
		t.print(w)
	}
	return nil
}

// A table is one block of a figure's output: print writes it rounded for
// reading, exact writes every value it holds in full precision, one
// value per line, for the golden.
type table interface {
	print(w io.Writer)
	exact(w io.Writer)
}

// seriesTable is a PrintSeries table.
type seriesTable struct {
	title, xLabel, vFmt string
	series              []Series
}

func (t seriesTable) print(w io.Writer) { PrintSeries(w, t.title, t.xLabel, t.vFmt, t.series) }

func (t seriesTable) exact(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.title)
	for _, s := range t.series {
		for _, p := range s.Points {
			fmt.Fprintf(w, "%s @ %s = %s%s\n", s.Name, exactFloat(p.X), exactFloat(p.Value), cappedMark(p.Capped))
		}
	}
}

// fig8Table is Figure 8's bars.
type fig8Table []Fig8Entry

func (t fig8Table) print(w io.Writer) { PrintFig8(w, t) }

func (t fig8Table) exact(w io.Writer) {
	for _, e := range t {
		fmt.Fprintf(w, "%s %s %s = %s s, norm %s%s\n", e.Level, e.Workload, e.Policy,
			exactFloat(e.Seconds), exactFloat(e.Normalized), cappedMark(e.Capped))
	}
}

// overlapTable is the stream-overlap ablation's pair of runs.
type overlapTable struct{ multi, single Result }

func (t overlapTable) print(w io.Writer) {
	m, s := t.multi.Seconds(), t.single.Seconds()
	fmt.Fprintf(w, "Ablation: transfer/computation overlap (BS 16 GiB, 8 partitions):\n"+
		"  multi-stream %.3fs, single-stream %.3fs -> overlap saves %.1f%%\n",
		m, s, 100*(1-m/s))
}

func (t overlapTable) exact(w io.Writer) {
	fmt.Fprintf(w, "overlap multi-stream = %s s, single-stream = %s s\n",
		exactFloat(t.multi.Seconds()), exactFloat(t.single.Seconds()))
}

// text is printed, and pinned, verbatim.
type text string

func (t text) print(w io.Writer) { io.WriteString(w, string(t)) }
func (t text) exact(w io.Writer) { t.print(w) }

// exactFloat prints the shortest form that parses back to v.
func exactFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func cappedMark(capped bool) string {
	if capped {
		return " (capped)"
	}
	return ""
}
