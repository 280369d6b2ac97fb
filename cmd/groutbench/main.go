// groutbench regenerates the paper's evaluation figures on the simulated
// cluster. Each figure prints as an aligned text table; see EXPERIMENTS.md
// for the paper-vs-measured comparison.
//
// Usage:
//
//	groutbench -fig all        # every figure (default)
//	groutbench -fig 6a         # one of: 1, 6a, 6b, 7, 8, 9
//	groutbench -fig 9 -ces 256 # Fig 9 with a shorter CE stream
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"grout/internal/bench"
	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/workloads"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 5, 6a, 6b, 7, 8, 9, fusion, ablation, scaling, whatif, oversub, uvmbench, recovery or all")
	ces := flag.Int("ces", 512, "CE stream length for Fig 9's overhead measurement and the recovery figure's chain")
	runWL := flag.String("run", "", "run one workload instead of a figure: bs, mle, cg, mv, images, deep, or a UVMBench one (kmeans, logreg, conv, bfs, pagerank, spmv, triad, stencil2d)")
	size := flag.String("size", "32GiB", "footprint for -run")
	workers := flag.Int("workers", 2, "worker count for -run (0 = single-node baseline)")
	polName := flag.String("policy", "vector-step", "policy for -run: "+strings.Join(policy.Names(), ", "))
	level := flag.String("level", "medium", "exploration level for -run online policies")
	prefetch := flag.String("prefetch", "", "UVM prefetch policy for -run workers: "+strings.Join(gpusim.PrefetchPolicyNames(), ", "))
	evict := flag.String("evict", "", "UVM eviction policy for -run workers: "+strings.Join(gpusim.EvictionPolicyNames(), ", "))
	chromeTrace := flag.String("chrome-trace", "", "write the -run CE schedule as Chrome trace JSON to this file")
	gantt := flag.Bool("gantt", false, "print the -run CE schedule as an ASCII Gantt chart")
	flag.Parse()

	if *runWL != "" {
		if err := runOne(*runWL, *size, *workers, *polName, *level, *prefetch, *evict, *chromeTrace, *gantt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := strings.ToLower(*fig)
	matched := false
	sel := func(name string) bool {
		if want == "all" || want == name {
			matched = true
			return true
		}
		return false
	}

	if sel("1") {
		run("fig 1", func() {
			bench.PrintSeries(os.Stdout,
				"Fig 1: Black-Scholes execution time (s) on one node vs input size",
				"size GiB ->", "%.2f", []bench.Series{bench.Fig1()})
		})
	}
	if sel("5") {
		run("fig 5", func() {
			fmt.Println("Fig 5: workload CE-dependency DAGs (Graphviz DOT)")
			dags := bench.Fig5DAGs()
			for _, name := range []string{"mle", "cg", "mv"} {
				fmt.Printf("// ---- %s ----\n%s\n", name, dags[name])
			}
		})
	}
	if sel("6a") {
		run("fig 6a", func() {
			bench.PrintSeries(os.Stdout,
				"Fig 6a: single-node slowdown vs the 4 GiB run (GrCUDA baseline)",
				"size GiB ->", "%.1f", bench.Fig6a())
		})
	}
	if sel("6b") {
		run("fig 6b", func() {
			bench.PrintSeries(os.Stdout,
				"Fig 6b: GrOUT two-node slowdown vs the 4 GiB run (vector-step)",
				"size GiB ->", "%.1f", bench.Fig6b())
		})
	}
	if sel("7") {
		run("fig 7", func() {
			bench.PrintSeries(os.Stdout,
				"Fig 7: GrOUT (2 nodes) speedup over single node per oversubscription factor",
				"factor ->", "%.2f", bench.Fig7())
		})
	}
	if sel("8") {
		run("fig 8", func() {
			bench.PrintFig8(os.Stdout, bench.Fig8())
		})
	}
	if sel("9") {
		run("fig 9", func() {
			bench.PrintSeries(os.Stdout,
				"Fig 9: controller scheduling overhead per CE (wall-clock µs) vs node count",
				"nodes ->", "%.1f", bench.Fig9(*ces))
		})
	}
	if sel("fusion") {
		run("fusion", func() {
			bench.PrintSeries(os.Stdout,
				"Optimizer window: caller-blocked wall-clock per CE (µs) — serial vs pipelined vs pipelined+opt",
				"nodes ->", "%.1f", bench.Fig9Compare(*ces))
		})
	}
	if sel("ablation") {
		run("ablations", func() {
			bench.PrintSeries(os.Stdout,
				"Ablation: hand-tuned UVM (advise+prefetch) vs scale-out — BS, seconds",
				"size GiB ->", "%.2f", bench.AblationHandTuning())
			m, s := bench.AblationStreamOverlap(16 * memmodel.GiB)
			fmt.Printf("Ablation: transfer/computation overlap (BS 16 GiB, 8 partitions):\n"+
				"  multi-stream %.3fs, single-stream %.3fs -> overlap saves %.1f%%\n",
				m.Seconds(), s.Seconds(), 100*(1-m.Seconds()/s.Seconds()))
		})
	}
	if sel("whatif") {
		run("hardware what-if", func() {
			bench.PrintSeries(os.Stdout,
				"What-if: BS on one node of each GPU generation (seconds)",
				"size GiB ->", "%.2f", bench.WhatIfHardware())
			fmt.Println("(-1 = footprint exceeds the node's host memory: allocation impossible)")
			fmt.Println("scale-up moves the knee (V100: 32 GiB/node, A100: 80 GiB/node); it does not remove it")
		})
	}
	if sel("scaling") {
		run("strong scaling", func() {
			var series []bench.Series
			for _, w := range []string{"mle", "cg", "mv"} {
				series = append(series,
					bench.StrongScaling(w, 128*memmodel.GiB, []int{1, 2, 4, 8, 16}))
			}
			bench.PrintSeries(os.Stdout,
				"Strong scaling: execution time (s) at 128 GiB vs node count",
				"nodes ->", "%.1f", series)
		})
	}
	if sel("oversub") {
		run("oversubscription cliff", func() {
			for _, pattern := range workloads.AllPatterns() {
				series, pts, err := bench.FigOversub(pattern)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				bench.PrintSeries(os.Stdout, fmt.Sprintf(
					"Oversubscription sweep (%s): modeled seconds per launch per prefetch+evict combo",
					pattern), "factor ->", "%.2f", series)
				factors := workloads.DefaultSweepFactors()
				fmt.Printf("Cliff per combo (%s):\n%s\n", pattern,
					bench.FmtOversubCliffs(pts, factors[len(factors)-1]))
			}
		})
	}
	if sel("uvmbench") {
		run("uvmbench scale-out", func() {
			factors := workloads.DefaultSweepFactors()
			for _, name := range []string{"spmv", "bfs", "pagerank", "triad", "kmeans"} {
				series, pts, err := bench.FigUVMBench(name, workloads.UVMSweepConfig{})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				bench.PrintSeries(os.Stdout, fmt.Sprintf(
					"UVMBench %s: modeled makespan (s) vs footprint over one worker's device memory",
					name), "factor ->", "%.2f", series)
				fmt.Printf("Cliff per fleet size (%s):\n%s\n", name,
					bench.FmtUVMCliffs(pts, factors[len(factors)-1]))
			}
		})
	}
	if sel("recovery") {
		run("recovery overhead", func() {
			rep, err := bench.RecoveryOverhead(*ces)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("Recovery: lineage replay after killing the chain tip's only holder\n"+
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
				rep.OverheadPct())
		})
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want 1, 5, 6a, 6b, 7, 8, 9, fusion, ablation, scaling, whatif, oversub, uvmbench, recovery or all)\n", *fig)
		os.Exit(2)
	}
}

// runOne executes a single workload configuration and reports its
// schedule, optionally exporting a Chrome trace.
func runOne(workload, sizeStr string, workers int, polName, levelName, prefetch, evict, tracePath string, gantt bool) error {
	foot, err := memmodel.ParseBytes(sizeStr)
	if err != nil {
		return err
	}
	w, ok := workloads.FullSuite()[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	p := workloads.Params{Footprint: foot}

	if workers <= 0 {
		if prefetch != "" || evict != "" {
			return fmt.Errorf("-prefetch/-evict need a worker fleet (-workers >= 1)")
		}
		r := bench.RunSingle(workload, p)
		if r.Err != nil {
			return r.Err
		}
		fmt.Printf("%s %v on 1 node (GrCUDA baseline): %.3fs simulated%s\n",
			workload, foot, r.Seconds(), capNote(r.Capped))
		return nil
	}

	lvl, err := policy.LevelFromName(levelName)
	if err != nil {
		return err
	}
	pol, err := policy.New(polName, bench.TunedVector(workload), lvl)
	if err != nil {
		return err
	}
	clu := cluster.New(cluster.PaperSpec(workers))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	if prefetch != "" || evict != "" {
		for _, id := range fab.Workers() {
			if err := fab.Runtime(id).Node().UseMemoryPolicies(prefetch, evict); err != nil {
				return err
			}
		}
	}
	ctl := core.NewController(fab, pol, core.Options{})
	defer ctl.Close()
	s := &workloads.Grout{Ctl: ctl}
	if err := w.Build(s, p); err != nil {
		return err
	}
	fmt.Printf("%s %v on %d nodes (%s): %.3fs simulated, %v moved, %d P2P, %v sched/CE\n",
		workload, foot, workers, pol.Name(), ctl.Elapsed().Seconds(),
		ctl.MovedBytes(), ctl.P2PMoves(), ctl.MeanSchedulingOverhead())
	rep := bench.Utilization(ctl, fab)
	for _, wu := range rep.Workers {
		fmt.Printf("  %-9v kernels %-5d pages in %-9d evicted %-9d written back %d\n",
			wu.Node, wu.KernelsRun, wu.PagesMigratedIn, wu.PagesEvicted, wu.PagesWrittenBack)
	}
	if gantt {
		if err := ctl.WriteGantt(os.Stdout, 100); err != nil {
			return err
		}
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ctl.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("Chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", tracePath)
	}
	return nil
}

func capNote(capped bool) string {
	if capped {
		return " (capped at 2.5h)"
	}
	return ""
}
