// groutbench regenerates the paper's evaluation figures on the simulated
// cluster. Each figure prints as an aligned text table; see EXPERIMENTS.md
// for the paper-vs-measured comparison.
//
// Usage:
//
//	groutbench -fig all        # every figure (default)
//	groutbench -fig 6a         # one figure; -h lists them
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
	fig := flag.String("fig", "all", "figure to regenerate: "+figNames())
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

	want := strings.ToLower(*fig)
	matched := false
	for _, f := range bench.Figures {
		if want != "all" && want != f.Name {
			continue
		}
		matched = true
		start := time.Now()
		if err := f.Print(os.Stdout, *ces); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[fig %s regenerated in %v]\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want %s)\n", *fig, figNames())
		os.Exit(2)
	}
}

// figNames lists the -fig values.
func figNames() string {
	names := make([]string, len(bench.Figures))
	for i, f := range bench.Figures {
		names[i] = f.Name
	}
	return strings.Join(names, ", ") + " or all"
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
