package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySeconds is the tests' "-scale tiny": a hundredth of the reference
// run, which every workload floors to its smallest meaningful size.
const tinySeconds = 0.1

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over the 64 KiB limit", len(data))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and spec.go must name the same workloads and metrics,
// within the limits the benchmark driver enforces before it runs anything.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}

	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, harness has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters (1..200)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(b.EndToEnd), len(endToEndSpecs))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", m.Name, m.Unit)
		}
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEndSpecs[i] {
			t.Errorf("end-to-end metric %d is %+v, harness has %+v", i, got, endToEndSpecs[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if len(b.PerLayer) != len(perLayerSpecs) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, harness has %d (limit 128)", len(b.PerLayer), len(perLayerSpecs))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the driver's limits", m.Name, m.Unit)
		}
		if got := (metricSpec{m.Name, m.Unit, m.Better, 0}); got != perLayerSpecs[i] {
			t.Errorf("per-layer metric %d is %+v, harness has %+v", i, got, perLayerSpecs[i])
		}
	}
}

// Every workload at tiny size, untraced and traced: each named metric
// present, finite, with its unit; nothing failed. Keeps the benchmark from
// rotting between the PRs that run it at full size.
func TestEveryWorkloadTiny(t *testing.T) {
	// Layers each workload's traced run must have something to say
	// about; a 0 there means a seam or counter came unhooked.
	mustMove := map[string][]string{
		wlLaunchStream: {"launch_p99_us", "server.launch_ack_us_p50", "server.sync_us_p50", "server.admitted",
			"transport.launch_calls", "transport.launch_us_p50", "policy.assign_calls", "core.dag_vertices",
			"go.mallocs_per_ce", "gpusim.kernels_run"},
		wlLaunchSync: {"launch_p99_us", "server.launch_ack_us_p50", "server.sync_us_p50", "split.above_fabric_self_us",
			"split.transport_launch_us", "split.policy_us", "split.sum_over_p50", "transport.launch_us_p50"},
		wlNumericApps: {"kernels.exec_share", "transport.move_calls", "transport.move_mb", "core.p2p_moves"},
		wlBulkMove:    {"move_large_mb_per_s", "move_small_per_s", "transport.move_busy_s", "transport.move_mb"},
		wlOversubSweep: {"sim_makespan_s", "scaleout_speedup", "gpusim.pages_in", "gpusim.pages_evicted",
			"gpusim.refault_share", "policy.assign_ns_per_call", "worker.exec_us_per_launch"},
	}
	probes := []string{"core.submit_us_per_ce", "core.launch_us_per_ce", "dag.add_ns_per_ce", "grcuda.submit_us_per_ce",
		"gpusim.host_ns_per_launch_fit", "gpusim.host_ns_per_launch_oversub", "transport.worker_ping_us_p50",
		"transport.session_rtt_us_p50", "kernels.relu_ns_per_elem", "kernels.blackscholes_ns_per_elem",
		"minicuda.triad_ns_per_elem", "minicuda.spmv_ns_per_elem", "minicuda.compile_cold_us", "minicuda.compile_cached_us"}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			label := name + "/untraced"
			specs := endToEndSpecs
			if trace {
				label, specs = name+"/traced", perLayerSpecs
			}
			t.Run(label, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runOne(runConfig{workload: name, seed: 2, seconds: tinySeconds, trace: trace, outDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.Name]
					if !ok {
						t.Errorf("%s: not reported", s.Name)
						continue
					}
					if m.Unit != s.Unit {
						t.Errorf("%s: unit %q, want %q", s.Name, m.Unit, s.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %v", s.Name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("%s: %v; end-to-end metrics are never 0", s.Name, m.Value)
					}
				}
				if !trace {
					return
				}
				if res.Metrics["failed_share"].Value != 0 {
					t.Errorf("failed_share = %v", res.Metrics["failed_share"].Value)
				}
				for _, k := range append(probes, mustMove[name]...) {
					if res.Metrics[k].Value == 0 {
						t.Errorf("%s is 0", k)
					}
				}
				if files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json")); len(files) != 1 {
					t.Errorf("traced run left %d Chrome trace files, want 1", len(files))
				}
			})
		}
	}
}

// On launch-sync (depth 1) span linkage is exact: the parts of the median
// step must add up to the traced run's median step within 5 %.
func TestLaunchSyncSplitAddsUp(t *testing.T) {
	cfg := runConfig{workload: wlLaunchSync, seed: 1, seconds: 1}
	tr := newTracer(launchTenants, launchArrays)
	p, err := runPass(cfg, cfg.scale(), tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := p.phase.layer
	sum := l["split.above_fabric_self_us"] + l["split.policy_us"] + l["split.transport_launch_us"] + l["split.transport_other_us"]
	p50 := float64(tr.stats(spOp).p50) / 1e3
	if sum <= 0 || math.Abs(sum-p50)/p50 > 0.05 {
		t.Errorf("split sums to %.2f µs, the traced median step is %.2f µs", sum, p50)
	}
	if r := l["split.sum_over_p50"]; math.Abs(r-1) > 0.05 {
		t.Errorf("split.sum_over_p50 = %v", r)
	}
	for _, part := range []string{"split.above_fabric_self_us", "split.policy_us", "split.transport_launch_us"} {
		if l[part] <= 0 {
			t.Errorf("%s = %v; the seam saw nothing inside the step", part, l[part])
		}
	}
}

// -compare must pass two files that agree and fail, naming the pair, when
// one end-to-end median is worse beyond its bound or an exact metric moved.
func TestCompareFlagsRegressions(t *testing.T) {
	mk := func(cePerS, makespan float64) resultFile {
		f := resultFile{Workloads: map[string]workloadReport{}}
		for _, name := range workloadNames {
			r := workloadReport{EndToEnd: map[string]metricSeries{}, PerLayer: map[string]metricValue{}}
			for _, s := range endToEndSpecs {
				r.EndToEnd[s.Name] = metricSeries{Unit: s.Unit, Median: 100}
			}
			r.EndToEnd["ce_per_s"] = metricSeries{Unit: "1/s", Median: cePerS}
			r.PerLayer["sim_makespan_s"] = metricValue{Value: makespan, Unit: "s"}
			f.Workloads[name] = r
		}
		return f
	}
	write := func(f resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(mk(1000, 5))
	for _, c := range []struct {
		name string
		file resultFile
		want int
	}{
		{"same", mk(1000, 5), 0},
		{"inside the bound", mk(900, 5), 0},
		{"faster", mk(2000, 5), 0},
		{"throughput beyond the bound", mk(700, 5), 1},
		{"simulated time moved", mk(1000, 5.000001), 1},
	} {
		var out strings.Builder
		if got := compareFiles(base, write(c.file), &out); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
