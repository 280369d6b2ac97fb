// Package bench regenerates every figure of the paper's evaluation
// (§V): Figure 1 (Black–Scholes under oversubscription), Figure 6a
// (single-node slowdowns), Figure 6b (GrOUT two-node slowdowns), Figure 7
// (speedup vs single node), Figure 8 (online vs offline policies at 3×
// oversubscription) and Figure 9 (controller scheduling overhead vs
// cluster size).
//
// Workload execution time is virtual (the GPU/UVM and network simulators);
// Figure 9's scheduling overhead is measured wall-clock around the real
// policy code, exactly as the paper does.
package bench

import (
	"fmt"
	"io"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/workloads"
)

// RunCap is the paper's per-run execution-time cap (2.5 hours): runs whose
// virtual time exceeds it are reported as capped, like the paper's
// out-of-time single-node MV runs.
const RunCap = sim.VirtualTime(2*time.Hour + 30*time.Minute)

// PaperSizes are the evaluated footprints, 4 GiB (0.125×) to 160 GiB (5×).
var PaperSizes = []memmodel.Bytes{
	4 * memmodel.GiB, 32 * memmodel.GiB, 64 * memmodel.GiB,
	96 * memmodel.GiB, 128 * memmodel.GiB, 160 * memmodel.GiB,
}

// OversubscriptionFactor reports footprint over the 32 GiB of a worker's
// two V100s, the paper's x-axis.
func OversubscriptionFactor(footprint memmodel.Bytes) float64 {
	return float64(footprint) / float64(32*memmodel.GiB)
}

// Result is the outcome of one workload run.
type Result struct {
	Workload  string
	Footprint memmodel.Bytes
	Factor    float64
	Workers   int // 0 = single-node GrCUDA baseline
	Policy    string
	Elapsed   sim.VirtualTime
	Capped    bool
	Moved     memmodel.Bytes
	Err       error
}

// cap applies the paper's execution-time cap.
func (r Result) cap() Result {
	if r.Elapsed > RunCap {
		r.Elapsed = RunCap
		r.Capped = true
	}
	return r
}

// Seconds reports elapsed virtual seconds.
func (r Result) Seconds() float64 { return r.Elapsed.Seconds() }

// TunedVector returns the user-provided vector-step vector the paper's
// offline roofline uses for each workload: it maps each partition's CE
// run to one node.
func TunedVector(workload string) []int {
	switch workload {
	case "mle":
		return []int{8} // one pipeline-pair (8 kernel CEs) per node
	default:
		return []int{1} // alternate partitions across nodes
	}
}

// RunSingle executes a workload on the single-node GrCUDA baseline.
func RunSingle(name string, p workloads.Params) Result {
	w, ok := workloads.ExtendedSuite()[name]
	if !ok {
		return Result{Workload: name, Err: fmt.Errorf("bench: unknown workload %q", name)}
	}
	rt := grcuda.NewRuntime(gpusim.NewNode(gpusim.OCIWorkerSpec("single")),
		kernels.StdRegistry(), grcuda.Options{})
	s := &workloads.SingleNode{RT: rt}
	res := Result{
		Workload:  name,
		Footprint: p.Footprint,
		Factor:    OversubscriptionFactor(p.Footprint),
		Workers:   0,
		Policy:    "single-node",
	}
	if err := w.Build(s, p); err != nil {
		res.Err = err
		return res
	}
	res.Elapsed = s.Elapsed()
	return res.cap()
}

// RunGrout executes a workload on GrOUT with the given worker count and
// policy.
func RunGrout(name string, p workloads.Params, workers int, pol policy.Policy) Result {
	w, ok := workloads.ExtendedSuite()[name]
	if !ok {
		return Result{Workload: name, Err: fmt.Errorf("bench: unknown workload %q", name)}
	}
	clu := cluster.New(cluster.PaperSpec(workers))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := core.NewController(fab, pol, core.Options{})
	defer ctl.Close()
	s := &workloads.Grout{Ctl: ctl}
	res := Result{
		Workload:  name,
		Footprint: p.Footprint,
		Factor:    OversubscriptionFactor(p.Footprint),
		Workers:   workers,
		Policy:    pol.Name(),
	}
	if err := w.Build(s, p); err != nil {
		res.Err = err
		return res
	}
	res.Elapsed = s.Elapsed()
	res.Moved = ctl.MovedBytes()
	return res.cap()
}

// Series is one line of a figure: a labelled sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Point is one measurement.
type Point struct {
	// X is the sweep coordinate (footprint GiB, node count, ...).
	X float64
	// Value is the measured quantity (seconds, slowdown, speedup, µs).
	Value float64
	// Capped marks runs that hit the 2.5 h execution cap.
	Capped bool
}

// Fig1 regenerates Figure 1: Black–Scholes execution time for increasing
// input sizes on one two-GPU node; sizes past 32 GiB oversubscribe (the
// paper's red bars).
func Fig1() Series {
	s := Series{Name: "blackscholes-single-node"}
	for _, size := range PaperSizes {
		r := RunSingle("bs", workloads.Params{Footprint: size})
		s.Points = append(s.Points, Point{
			X: size.GiBf(), Value: r.Seconds(), Capped: r.Capped,
		})
	}
	return s
}

// Fig6a regenerates Figure 6a: per-workload slowdown relative to the 4 GiB
// run on a single node.
func Fig6a() []Series {
	return slowdownSweep(func(name string, p workloads.Params) Result {
		return RunSingle(name, p)
	})
}

// Fig6b regenerates Figure 6b: the same slowdown sweep on GrOUT with two
// nodes under the offline vector-step policy.
func Fig6b() []Series {
	return slowdownSweep(func(name string, p workloads.Params) Result {
		vs, err := policy.NewVectorStep(TunedVector(name))
		if err != nil {
			return Result{Workload: name, Err: err}
		}
		return RunGrout(name, p, 2, vs)
	})
}

func slowdownSweep(run func(string, workloads.Params) Result) []Series {
	var out []Series
	for _, name := range []string{"mle", "cg", "mv"} {
		s := Series{Name: name}
		var base float64
		for _, size := range PaperSizes {
			r := run(name, workloads.Params{Footprint: size})
			secs := r.Seconds()
			if size == PaperSizes[0] {
				base = secs
			}
			v := 0.0
			if base > 0 {
				v = secs / base
			}
			s.Points = append(s.Points, Point{X: size.GiBf(), Value: v, Capped: r.Capped})
		}
		out = append(out, s)
	}
	return out
}

// Fig7 regenerates Figure 7: the speedup of GrOUT (two nodes, vector-step)
// over the single-node execution at the same oversubscription factor.
func Fig7() []Series {
	var out []Series
	for _, name := range []string{"mle", "cg", "mv"} {
		s := Series{Name: name}
		for _, size := range PaperSizes {
			p := workloads.Params{Footprint: size}
			single := RunSingle(name, p)
			vs, _ := policy.NewVectorStep(TunedVector(name))
			grout := RunGrout(name, p, 2, vs)
			v := 0.0
			if grout.Seconds() > 0 {
				v = single.Seconds() / grout.Seconds()
			}
			s.Points = append(s.Points, Point{
				X: OversubscriptionFactor(size), Value: v,
				Capped: single.Capped || grout.Capped,
			})
		}
		out = append(out, s)
	}
	return out
}

// Fig8Entry is one bar of Figure 8: a workload × policy execution time at
// 3× oversubscription, normalized to the round-robin baseline.
type Fig8Entry struct {
	Workload   string
	Policy     string
	Level      policy.ExplorationLevel
	Seconds    float64
	Normalized float64 // vs round-robin (lower is better)
	Capped     bool
}

// Fig8 regenerates Figure 8: online (min-transfer-size/time) vs offline
// (vector-step) policies against the round-robin baseline at 96 GiB, under
// the three exploration/exploitation levels.
func Fig8() []Fig8Entry {
	const foot = 96 * memmodel.GiB
	var out []Fig8Entry
	for _, level := range []policy.ExplorationLevel{policy.Low, policy.Medium, policy.High} {
		for _, name := range []string{"mle", "cg", "mv"} {
			p := workloads.Params{Footprint: foot}
			base := RunGrout(name, p, 2, policy.NewRoundRobin())
			entries := []struct {
				pol policy.Policy
			}{
				{policy.NewRoundRobin()},
				{mustVectorStep(TunedVector(name))},
				{policy.NewMinTransferSize(level)},
				{policy.NewMinTransferTime(level)},
			}
			for _, e := range entries {
				r := RunGrout(name, p, 2, e.pol)
				norm := 0.0
				if base.Seconds() > 0 {
					norm = r.Seconds() / base.Seconds()
				}
				out = append(out, Fig8Entry{
					Workload: name, Policy: e.pol.Name(), Level: level,
					Seconds: r.Seconds(), Normalized: norm, Capped: r.Capped,
				})
			}
		}
	}
	return out
}

func mustVectorStep(v []int) policy.Policy {
	p, err := policy.NewVectorStep(v)
	if err != nil {
		panic(err)
	}
	return p
}

// Fig9NodeCounts are the cluster sizes of Figure 9.
var Fig9NodeCounts = []int{2, 4, 8, 16, 32, 64, 128, 256}

// Fig9 regenerates Figure 9: the wall-clock time the Controller spends on
// the scheduling decision per CE, for each policy, as the node count
// grows. Returns series of mean microseconds per CE.
func Fig9(cesPerRun int) []Series {
	if cesPerRun <= 0 {
		cesPerRun = 512
	}
	mk := func(name string) func() policy.Policy {
		return func() policy.Policy {
			p, err := policy.New(name, []int{1}, policy.Medium)
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	policies := []func() policy.Policy{
		mk("round-robin"), mk("vector-step"),
		mk("min-transfer-size"), mk("min-transfer-time"),
	}
	var out []Series
	for _, mkPol := range policies {
		s := Series{Name: mkPol().Name()}
		for _, nodes := range Fig9NodeCounts {
			us := schedulingOverheadProbe(nodes, cesPerRun, mkPol())
			s.Points = append(s.Points, Point{X: float64(nodes), Value: us})
		}
		out = append(out, s)
	}
	return out
}

// Fig9Compare contrasts the submission paths on the Figure 9 synthetic
// stream: for each policy and node count, the wall-clock time the CE
// stream is blocked per submission — Launch for the serial path
// (scheduling + dispatch of each CE on the caller), Submit for the
// pipelined one (scheduling, plus the dispatch of a whole run queue on
// every 64th Submit: LocalFabric has no launch stream, so the
// caller that fills the queue works it through). Two series per policy —
// "<policy>/serial" and "<policy>/pipelined" — in microseconds per CE.
func Fig9Compare(cesPerRun int) []Series {
	if cesPerRun <= 0 {
		cesPerRun = 512
	}
	names := []string{"round-robin", "vector-step", "min-transfer-size", "min-transfer-time"}
	mk := func(name string) policy.Policy {
		p, err := policy.New(name, []int{1}, policy.Medium)
		if err != nil {
			panic(err)
		}
		return p
	}
	modes := []struct {
		suffix string
		launch bool
	}{
		{"/serial", true},
		{"/pipelined", false},
	}
	var out []Series
	for _, name := range names {
		for _, mode := range modes {
			s := Series{Name: name + mode.suffix}
			for _, nodes := range Fig9NodeCounts {
				us := submitWallClockProbe(nodes, cesPerRun, mk(name), mode.launch)
				s.Points = append(s.Points, Point{X: float64(nodes), Value: us})
			}
			out = append(out, s)
		}
	}
	return out
}

// submitWallClockProbe measures the wall-clock microseconds per CE the
// caller is blocked submitting the Fig. 9 stream (the final drain is not
// part of the per-CE admission cost and is excluded): by Launch, which
// waits for each CE, or by Submit, which does not wait for its own CE but
// works through each run queue it fills.
func submitWallClockProbe(nodes, ces int, pol policy.Policy, launch bool) float64 {
	clu := cluster.New(cluster.PaperSpec(nodes))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := core.NewController(fab, pol, core.Options{})
	defer ctl.Close()
	const arrays = 16
	ids := make([]core.ArgRef, arrays)
	const elems = int64(16 * memmodel.MiB / 4)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, elems)
		if err != nil {
			panic(err)
		}
		ids[i] = core.ArrRef(arr.ID)
	}
	start := time.Now()
	for i := 0; i < ces; i++ {
		inv := core.Invocation{
			Kernel: "relu",
			Args:   []core.ArgRef{ids[i%arrays], core.ScalarRef(float64(elems))},
		}
		var err error
		if launch {
			_, err = ctl.Launch(inv)
		} else {
			_, err = ctl.Submit(inv)
		}
		if err != nil {
			panic(err)
		}
	}
	blocked := time.Since(start)
	if err := ctl.Drain(); err != nil {
		panic(err)
	}
	return float64(blocked.Nanoseconds()) / float64(ces) / 1e3
}

// schedulingOverheadProbe runs a synthetic CE stream on a cluster of the
// given size and reports the controller's mean scheduling overhead in
// microseconds per CE.
func schedulingOverheadProbe(nodes, ces int, pol policy.Policy) float64 {
	clu := cluster.New(cluster.PaperSpec(nodes))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := core.NewController(fab, pol, core.Options{})
	defer ctl.Close()
	const arrays = 16
	ids := make([]core.ArgRef, arrays)
	const elems = int64(16 * memmodel.MiB / 4)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, elems)
		if err != nil {
			panic(err)
		}
		ids[i] = core.ArrRef(arr.ID)
	}
	for i := 0; i < ces; i++ {
		_, err := ctl.Launch(core.Invocation{
			Kernel: "relu",
			Args:   []core.ArgRef{ids[i%arrays], core.ScalarRef(float64(elems))},
		})
		if err != nil {
			panic(err)
		}
	}
	return float64(ctl.MeanSchedulingOverhead().Nanoseconds()) / 1e3
}

// PrintSeries renders series as an aligned text table, one row per series.
func PrintSeries(w io.Writer, title, xLabel, vFmt string, series []Series) {
	fmt.Fprintf(w, "%s\n", title)
	if len(series) == 0 {
		return
	}
	nameW := len(xLabel)
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	fmt.Fprintf(w, "%-*s", nameW, xLabel)
	for _, p := range series[0].Points {
		fmt.Fprintf(w, "%12.4g", p.X)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-*s", nameW, s.Name)
		for _, p := range s.Points {
			cell := fmt.Sprintf(vFmt, p.Value)
			if p.Capped {
				cell += "*"
			}
			fmt.Fprintf(w, "%12s", cell)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(* = hit the 2.5h execution cap)")
}

// PrintFig8 renders Figure 8's entries grouped by exploration level.
func PrintFig8(w io.Writer, entries []Fig8Entry) {
	fmt.Fprintln(w, "Fig 8: policy comparison at 3x oversubscription (96 GiB, 2 nodes)")
	fmt.Fprintln(w, "normalized execution time vs round-robin (lower is better)")
	last := policy.ExplorationLevel(-1)
	for _, e := range entries {
		if e.Level != last {
			fmt.Fprintf(w, "-- exploration level: %s --\n", e.Level)
			last = e.Level
		}
		capped := ""
		if e.Capped {
			capped = " (capped)"
		}
		fmt.Fprintf(w, "  %-4s %-18s %10.2fs   norm %6.3f%s\n",
			e.Workload, e.Policy, e.Seconds, e.Normalized, capped)
	}
}

// Fig5DAGs renders each workload's CE-dependency graph in Graphviz DOT
// format — the structural content of the paper's Figure 5 — built from a
// small cost-model-only run.
func Fig5DAGs() map[string]string {
	out := make(map[string]string)
	for _, name := range []string{"mle", "cg", "mv"} {
		rt := grcuda.NewRuntime(gpusim.NewNode(gpusim.OCIWorkerSpec("fig5")),
			kernels.StdRegistry(), grcuda.Options{})
		s := &workloads.SingleNode{RT: rt}
		w := Suite()[name]
		if err := w.Build(s, workloads.Params{
			Footprint: 256 * memmodel.MiB, Blocks: 2, Iterations: 1,
		}); err != nil {
			out[name] = "// error: " + err.Error()
			continue
		}
		out[name] = rt.Graph().DOT(name)
	}
	return out
}

// Suite re-exports the workload suite for callers that already import
// bench.
func Suite() map[string]*workloads.Workload { return workloads.Suite() }
