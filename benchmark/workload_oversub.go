package main

// oversub-sweep: the paper's result as a workload. Cost-only
// core.LocalFabric fleets, no sockets, no numerics: the eight UVMSuite
// programs × footprint factors 0.5–4× of one worker's device memory ×
// 1/2/4 workers × all nine prefetch/evict combinations, each cell on a
// fresh fleet, the whole grid repeated a fixed number of times. gpusim,
// grcuda, policy and core scheduling do the work. It is the only workload
// whose simulated time is deterministic, so it alone carries the paper's
// invariant: every cell's makespan and CE count must equal
// golden/oversub.json, and a host-speed change that bends the model fails
// the output check instead of scoring a gain.

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/workloads"
)

// goldenPath is where -update-golden writes, relative to the repository
// root (where `go run ./benchmark` is run from).
const goldenPath = "benchmark/golden/oversub.json"

//go:embed golden/oversub.json
var goldenJSON []byte

// oversubPasses is how many times the full grid runs at the reference ten
// seconds. Below a fifth of that only the eager+lru baseline grid runs
// (the -scale tiny of the tests).
const oversubPasses = 10

// sweepCell is one cell's coordinates; with its result it is one entry of
// the golden file (the same shape workloads.UVMSweepPoint serializes to).
type sweepCell = workloads.UVMSweepPoint

func cellKey(c sweepCell) string {
	return fmt.Sprintf("%s/%s+%s/%dw/%.1fx", c.Workload, c.Prefetch, c.Evict, c.Workers, c.Factor)
}

// sweepGrid lists the cells of one pass, baseline combination first.
func sweepGrid(baselineOnly bool) []sweepCell {
	var names []string
	for name := range workloads.UVMSuite() {
		names = append(names, name)
	}
	sort.Strings(names)
	combos := workloads.AllPolicyCombos()
	sort.SliceStable(combos, func(i, j int) bool {
		return combos[i] == [2]string{"eager", "lru"} && combos[j] != [2]string{"eager", "lru"}
	})
	if baselineOnly {
		combos = combos[:1]
	}
	var grid []sweepCell
	for _, combo := range combos {
		for _, name := range names {
			for _, workers := range workloads.DefaultSweepWorkers() {
				for _, factor := range workloads.DefaultSweepFactors() {
					grid = append(grid, sweepCell{Workload: name, Factor: factor, Workers: workers,
						Prefetch: combo[0], Evict: combo[1]})
				}
			}
		}
	}
	return grid
}

// sweepFleet is the cluster of one cell: `workers` nodes with one V100
// each on the paper's OCI network profile — workloads.UVMBenchSweep's
// defaults, which golden_test.go checks cell for cell.
func sweepFleet(workers int) cluster.Spec {
	s := cluster.Spec{
		ControllerEgressBW:  1e9,
		ControllerIngressBW: 1e9,
		WorkerNICBW:         500e6,
		Latency:             sim.VirtualTime(250_000),
	}
	for i := 0; i < workers; i++ {
		dev := gpusim.V100Spec(fmt.Sprintf("uvm%d/gpu0", i+1))
		s.Workers = append(s.Workers, gpusim.NodeSpec{
			Name:       fmt.Sprintf("uvm%d", i+1),
			Devices:    []gpusim.DeviceSpec{dev},
			HostMemory: 512 * memmodel.GiB,
		})
	}
	return s
}

const sweepBlocks = 8

// cellRun is what running one cell produced beyond its golden fields.
type cellRun struct {
	cell  sweepCell
	ctl   *core.Controller
	stats gpusim.Stats
}

// runCell builds the cell's fleet, runs its program and fills in makespan
// and CE count. The caller closes run.ctl.
func runCell(c sweepCell, prog *workloads.Workload, tr *tracer, lat *latencySet, seg int) (cellRun, error) {
	fab := core.NewLocalFabric(cluster.New(sweepFleet(c.Workers)), kernels.StdRegistry(), false)
	for _, id := range fab.Workers() {
		if err := fab.Runtime(id).Node().UseMemoryPolicies(c.Prefetch, c.Evict); err != nil {
			return cellRun{}, err
		}
	}
	wrapped, err := wrapFabric(fab, tr)
	if err != nil {
		return cellRun{}, err
	}
	ctl := core.NewController(wrapped, wrapPolicy(policy.NewMinTransferTime(policy.Medium), tr),
		core.Options{Pipeline: true})
	async := &workloads.AsyncGrout{Ctl: ctl}
	seam := &seamSession{inner: async, sync: waitSyncer{async}, tr: tr, tenant: -1, lat: lat, seg: seg}
	run := cellRun{cell: c, ctl: ctl}
	footprint := memmodel.Bytes(c.Factor * float64(gpusim.V100Spec("").Memory))
	err = prog.Build(seam, workloads.Params{Footprint: footprint, Blocks: sweepBlocks})
	if err == nil {
		err = seam.Sync()
	}
	if err != nil {
		return run, err
	}
	run.cell.MakespanNs = int64(async.Elapsed())
	run.cell.CEs = ctl.Graph().Size()
	for _, id := range fab.Workers() {
		for _, s := range fab.WorkerStats(id) {
			addStats(&run.stats, s)
		}
	}
	return run, nil
}

type oversubWorkload struct {
	tr     *tracer
	rng    *rand.Rand
	grid   []sweepCell
	passes int
	suite  map[string]*workloads.Workload
	golden map[string]sweepCell

	checked, mismatched int
}

// loadGolden parses the embedded golden file, once per process: reading
// the reference is the harness's work and must not sit in setup_s.
var loadGolden = sync.OnceValues(func() (map[string]sweepCell, error) {
	var cells []sweepCell
	if err := json.Unmarshal(goldenJSON, &cells); err != nil {
		return nil, fmt.Errorf("golden/oversub.json: %w", err)
	}
	out := make(map[string]sweepCell, len(cells))
	for _, c := range cells {
		out[cellKey(c)] = c
	}
	return out, nil
})

func (w *oversubWorkload) setUp(cfg runConfig, scale float64, tr *tracer) error {
	w.tr = tr
	w.rng = rand.New(rand.NewSource(cfg.seed))
	w.suite = workloads.UVMSuite()
	w.passes = scaled(oversubPasses, scale, 1)
	w.grid = sweepGrid(scale < 0.2)
	var err error
	if w.golden, err = loadGolden(); err != nil {
		return err
	}
	// Build every program's kernels once, cold, so the measured cells hit
	// the compile cache the way a long-lived process does.
	minicuda.FlushCompileCache()
	fab := core.NewLocalFabric(cluster.New(sweepFleet(1)), kernels.StdRegistry(), false)
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{Pipeline: true})
	defer ctl.Close()
	for _, prog := range w.suite {
		p := workloads.Params{Footprint: memmodel.GiB, Blocks: sweepBlocks}
		if err := prog.Build(drySession{ctl: ctl}, p); err != nil {
			return fmt.Errorf("%s: %w", prog.Name, err)
		}
	}
	return nil
}

func (w *oversubWorkload) measure() (phaseResult, error) {
	res := phaseResult{lat: newLatencySet(w.passes, 16384), layer: map[string]float64{}}
	var totals coreTotals
	var stats gpusim.Stats
	var simNs int64
	var passRates []float64
	baseline := map[string]int64{} // "workload/Nw" → makespan at 2.0×, eager+lru
	order := append([]sweepCell(nil), w.grid...)
	start := time.Now()
	for pass := 0; pass < w.passes; pass++ {
		w.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		passStart := time.Now()
		passCEs := 0
		for _, c := range order {
			run, err := runCell(c, w.suite[c.Workload], w.tr, res.lat, pass)
			res.attempted++
			if err != nil {
				res.failed++
				fmt.Fprintf(logOut, "oversub-sweep: %s: %v\n", cellKey(c), err)
			} else {
				passCEs += run.cell.CEs
				simNs += run.cell.MakespanNs
				totals.add(run.ctl, run.cell.CEs)
				addStats(&stats, run.stats)
				w.compare(run.cell)
				if c.Factor == 2.0 && c.Prefetch == "eager" && c.Evict == "lru" {
					baseline[fmt.Sprintf("%s/%d", c.Workload, c.Workers)] = run.cell.MakespanNs
				}
			}
			if run.ctl != nil {
				if err := run.ctl.Close(); err != nil {
					return res, err
				}
			}
		}
		res.ces += passCEs
		passRates = append(passRates, float64(passCEs)/time.Since(passStart).Seconds())
	}
	res.wall = time.Since(start)
	res.cePerSec = median(passRates)

	res.layer["sim_makespan_s"] = float64(simNs) / 1e9 / float64(w.passes)
	// Sorted, so the floating-point sum — and with it the reported ratio —
	// is the same to the last bit on every run.
	names := make([]string, 0, len(w.suite))
	for name := range w.suite {
		names = append(names, name)
	}
	sort.Strings(names)
	logSum, n := 0.0, 0
	for _, name := range names {
		one, two := baseline[name+"/1"], baseline[name+"/2"]
		if one > 0 && two > 0 {
			logSum += math.Log(float64(one) / float64(two))
			n++
		}
	}
	if n > 0 {
		res.layer["scaleout_speedup"] = math.Exp(logSum / float64(n))
	}
	totals.into(res.layer)
	deviceCounters(res.layer, stats)
	return res, nil
}

// compare holds one finished cell against the golden file.
func (w *oversubWorkload) compare(got sweepCell) {
	w.checked++
	want, ok := w.golden[cellKey(got)]
	if !ok || want.MakespanNs != got.MakespanNs || want.CEs != got.CEs {
		w.mismatched++
		if w.mismatched > 10 {
			return // the count tells the rest
		}
		fmt.Fprintf(logOut, "oversub-sweep: %s: makespan %d ns / %d CEs, golden %d ns / %d CEs\n",
			cellKey(got), got.MakespanNs, got.CEs, want.MakespanNs, want.CEs)
	}
}

func (w *oversubWorkload) check() (attempted, failed int, err error) {
	return w.checked, w.mismatched, nil
}

func (w *oversubWorkload) tearDown() error { return nil }

// writeGolden regenerates the golden file: every cell of the full grid,
// once, from the code as it is.
func writeGolden(path string) error {
	suite := workloads.UVMSuite()
	var cells []sweepCell
	for _, c := range sweepGrid(false) {
		run, err := runCell(c, suite[c.Workload], nil, nil, 0)
		if run.ctl != nil {
			run.ctl.Close()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", cellKey(c), err)
		}
		cells = append(cells, run.cell)
	}
	// One cell per line, so a model change shows as the lines it moved.
	var out bytes.Buffer
	out.WriteString("[\n")
	for i, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			return err
		}
		out.Write(line)
		if i < len(cells)-1 {
			out.WriteByte(',')
		}
		out.WriteByte('\n')
	}
	out.WriteString("]\n")
	return os.WriteFile(path, out.Bytes(), 0o644)
}
