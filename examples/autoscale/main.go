// Autoscaling — the paper's §V-F discussion: "a heuristical model could
// be built to autonomously allocate more resources at runtime after
// reaching the steep increase in execution time". Earlier revisions of
// this example approximated that by restarting a fresh cluster at each
// size; this one exercises the real mechanism (DESIGN.md §5.9): ONE
// deployment is provisioned with the maximum fleet, every node but the
// first is retired to the standby pool before any work is submitted
// (Controller.RetireWorker on the fresh controller), and a KPI loop calls
// Controller.AddWorker on the RUNNING controller — arrays stay where
// they are, in-flight work keeps streaming, and each new node becomes a
// scheduling candidate for the CEs admitted after the call.
//
// The second act demonstrates the other direction: RetireWorker drains
// and MIGRATES a node's sole-copy arrays to the survivors (failover
// counter untouched), so scaling back in mid-workload is bit-identical
// to never having scaled at all.
package main

import (
	"fmt"

	"grout"
	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

const (
	maxFleet   = 8
	arrays     = 40
	arrayBytes = 2 * memmodel.GiB // 80 GiB total: 2.5x one 2x16 GiB node
	kpiSeconds = 35.0             // per-round KPI
)

func main() {
	scaleOut()
	scaleIn()
}

// scaleOut is the KPI loop: start on one node of a provisioned-but-idle
// fleet and AddWorker live until a round over the working set meets the
// KPI or the standby pool runs dry. Cost-model-only data (Numeric
// false) keeps the 48 GiB working set free.
func scaleOut() {
	clu, err := grout.NewSimulatedCluster(grout.Config{
		Workers: maxFleet,
		Policy:  "round-robin",
	})
	if err != nil {
		panic(err)
	}
	defer clu.Close()
	ctl := clu.Controller
	// Start on node 1: the rest of the fleet goes to the standby pool
	// before anything is placed on it.
	for w := cluster.NodeID(2); int(w) <= maxFleet; w++ {
		if err := ctl.RetireWorker(w); err != nil {
			panic(err)
		}
	}

	fmt.Printf("fleet: %d nodes provisioned, %d active; working set %v (%.1fx one node's GPU memory)\n",
		maxFleet, len(ctl.Members()), arrays*arrayBytes,
		float64(arrays*arrayBytes)/float64(2*16*memmodel.GiB))
	fmt.Printf("KPI: one round over the working set under %.0fs of simulated time\n\n", kpiSeconds)

	ids := make([]*core.GlobalArray, arrays)
	for i := range ids {
		a, err := ctl.NewArray(memmodel.Float32, int64(arrayBytes/memmodel.Float32.Size()))
		if err != nil {
			panic(err)
		}
		ids[i] = a
	}
	n := core.ScalarRef(float64(arrayBytes / memmodel.Float32.Size()))

	// One round streams an independent kernel over every block of the
	// working set — the paper's partitioned-workload shape, so extra
	// nodes shrink both each node's share of the compute and its
	// resident footprint (escaping the UVM paging knee).
	round := func() sim.VirtualTime {
		before := ctl.Elapsed()
		for _, a := range ids {
			if _, err := ctl.Submit(core.Invocation{Kernel: "relu",
				Args: []core.ArgRef{core.ArrRef(a.ID), n}}); err != nil {
				panic(err)
			}
		}
		if err := ctl.Drain(); err != nil {
			panic(err)
		}
		return ctl.Elapsed() - before
	}

	fmt.Printf("%8s %14s %14s\n", "nodes", "round (s)", "vs KPI")
	next := cluster.NodeID(2) // node 1 is the only member at start
	for {
		dt := round().Seconds()
		nodes := len(ctl.Members())
		fmt.Printf("%8d %14.2f %14s\n", nodes, dt, verdict(dt, kpiSeconds))
		if dt <= kpiSeconds {
			fmt.Printf("\nKPI met with %d nodes — scaled out live, zero restarts, %d P2P moves so far.\n\n",
				nodes, ctl.P2PMoves())
			return
		}
		if int(next) > maxFleet {
			fmt.Printf("\nstandby pool exhausted at %d nodes; KPI unreachable for this working set.\n\n", nodes)
			return
		}
		// The paper's heuristic: past the oversubscription knee, add a
		// node. The controller keeps running; the next round's CEs see
		// the larger fleet.
		if err := ctl.AddWorker(next); err != nil {
			panic(err)
		}
		fmt.Printf("%8s scaling out: activated standby node %v\n", "", next)
		next++
		// One unmeasured settle round: the first round on the larger
		// fleet pays the data redistribution; the KPI judges steady
		// state.
		round()
	}
}

// scaleIn goes the other way: a numeric run with a mid-workload
// RetireWorker must be bit-identical to the static-fleet run, because
// retirement migrates sole copies instead of recomputing (or losing)
// them.
func scaleIn() {
	const elems = 1 << 16
	run := func(retireMid bool) *kernels.Buffer {
		clu, err := grout.NewSimulatedCluster(grout.Config{
			Workers: 4, Policy: "round-robin", Numeric: true,
		})
		if err != nil {
			panic(err)
		}
		defer clu.Close()
		ctl := clu.Controller
		a, err := ctl.NewArray(memmodel.Float32, elems)
		if err != nil {
			panic(err)
		}
		b, err := ctl.NewArray(memmodel.Float32, elems)
		if err != nil {
			panic(err)
		}
		for i := 0; i < elems; i++ {
			a.Buf.Set(i, float64(i%13)-6)
			b.Buf.Set(i, float64(i%7)-3)
		}
		if _, err := ctl.HostWrite(a.ID); err != nil {
			panic(err)
		}
		if _, err := ctl.HostWrite(b.ID); err != nil {
			panic(err)
		}
		n := core.ScalarRef(float64(elems))
		for i := 0; i < 12; i++ {
			if retireMid && i == 6 {
				if err := ctl.RetireWorker(3); err != nil {
					panic(err)
				}
			}
			if _, err := ctl.Submit(core.Invocation{Kernel: "axpy",
				Args: []core.ArgRef{core.ArrRef(a.ID), core.ArrRef(b.ID),
					core.ScalarRef(0.25), n}}); err != nil {
				panic(err)
			}
		}
		if _, err := ctl.HostRead(a.ID); err != nil {
			panic(err)
		}
		if f := ctl.Failovers(); f != 0 {
			panic(fmt.Sprintf("retirement is not a death: failovers = %d", f))
		}
		out := kernels.NewBuffer(memmodel.Float32, elems)
		for i := 0; i < elems; i++ {
			out.Set(i, a.Buf.At(i))
		}
		return out
	}
	static := run(false)
	elastic := run(true)
	fmt.Printf("scale-in: node 3 retired mid-workload; max |static - elastic| = %g (bit-identical: %v)\n",
		elastic.MaxAbsDiff(static), elastic.MaxAbsDiff(static) == 0)
	if elastic.MaxAbsDiff(static) != 0 {
		panic("retire-mid-workload run diverged from the static fleet")
	}
}

func verdict(got, target float64) string {
	if got <= target {
		return "MET"
	}
	return fmt.Sprintf("%.1fx over", got/target)
}
