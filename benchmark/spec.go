package main

// The benchmark's vocabulary: workload names, metric names, units. These
// tables and BENCHMARK.json say the same thing; bench_test.go fails when
// they drift.

// Workload names. They are final: results files and later PRs refer to
// them.
const (
	wlLaunchStream = "launch-stream"
	wlLaunchSync   = "launch-sync"
	wlNumericApps  = "numeric-apps"
	wlBulkMove     = "bulk-move"
	wlOversubSweep = "oversub-sweep"
)

var workloadNames = []string{wlLaunchStream, wlLaunchSync, wlNumericApps, wlBulkMove, wlOversubSweep}

// metricSpec is one metric as BENCHMARK.json lists it. Bound is 0 for
// per-layer metrics, which carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndSpecs are measured with tracing off and reported by every
// workload. What each one means on a workload it was not named after is
// in README.md ("End-to-end metrics").
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ce_per_s", "1/s", "higher", 0.25},
	{"launch_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerSpecs are reported by the traced run. A layer that is not on a
// workload's path reports 0 there.
var perLayerSpecs = []metricSpec{
	// End-to-end figures, measured in the untraced half of the traced
	// run, that cannot be gated: they exist on one workload only (the
	// driver wants every end-to-end metric from every workload), are
	// exact (it refuses a time that never varies), or are noisier on the
	// reference box than any bound it accepts (launch_p99_us). README.md,
	// "What moved out of end_to_end".
	{"launch_p99_us", "us", "lower", 0},
	{"launch_p999_us", "us", "lower", 0},
	{"move_large_mb_per_s", "MB/s", "higher", 0},
	{"move_small_per_s", "1/s", "higher", 0},
	{"sim_makespan_s", "s", "lower", 0},
	{"scaleout_speedup", "ratio", "higher", 0},
	{"failed_share", "share", "lower", 0},

	{"server.launch_ack_us_p50", "us", "lower", 0},
	{"server.launch_ack_us_p99", "us", "lower", 0},
	{"server.sync_us_p50", "us", "lower", 0},
	{"server.sync_us_p99", "us", "lower", 0},
	{"server.admitted", "count", "higher", 0},
	{"server.completed", "count", "higher", 0},
	{"server.aborted", "count", "lower", 0},
	{"server.dropped", "count", "lower", 0},
	{"server.shed", "count", "lower", 0},
	{"server.admission_wait_p99_us", "us", "lower", 0},
	{"server.queue_depth_max", "count", "lower", 0},

	{"stack.above_fabric_self_us_per_ce", "us", "lower", 0},
	{"split.above_fabric_self_us", "us", "lower", 0},
	{"split.policy_us", "us", "lower", 0},
	{"split.transport_launch_us", "us", "lower", 0},
	{"split.transport_other_us", "us", "lower", 0},
	{"split.sum_over_p50", "ratio", "higher", 0},
	{"core.submit_us_per_ce", "us", "lower", 0},
	{"core.launch_us_per_ce", "us", "lower", 0},
	{"dag.add_ns_per_ce", "ns", "lower", 0},

	{"core.sched_overhead_us", "us", "lower", 0},
	{"core.moved_mb", "MB", "lower", 0},
	{"core.p2p_moves", "count", "lower", 0},
	{"core.dag_vertices", "count", "lower", 0},
	{"core.failovers", "count", "lower", 0},
	{"core.recoveries", "count", "lower", 0},

	{"optimizer.fused_ces", "count", "higher", 0},
	{"optimizer.coalesced_transfers", "count", "higher", 0},
	{"optimizer.eliminated_moves", "count", "higher", 0},
	{"optimizer.eliminated_move_share", "share", "higher", 0},

	{"policy.assign_calls", "count", "lower", 0},
	{"policy.assign_ns_per_call", "ns", "lower", 0},

	{"transport.launch_calls", "count", "lower", 0},
	{"transport.launch_us_p50", "us", "lower", 0},
	{"transport.launch_us_p99", "us", "lower", 0},
	{"transport.ensure_calls", "count", "lower", 0},
	{"transport.move_calls", "count", "lower", 0},
	{"transport.move_mb", "MB", "lower", 0},
	{"transport.move_busy_s", "s", "lower", 0},
	{"transport.errors", "count", "lower", 0},
	{"transport.worker_ping_us_p50", "us", "lower", 0},
	{"transport.session_rtt_us_p50", "us", "lower", 0},

	{"worker.exec_us_per_launch", "us", "lower", 0},
	{"grcuda.submit_us_per_ce", "us", "lower", 0},
	{"gpusim.host_ns_per_launch_fit", "ns", "lower", 0},
	{"gpusim.host_ns_per_launch_oversub", "ns", "lower", 0},
	{"gpusim.pages_in", "count", "lower", 0},
	{"gpusim.pages_evicted", "count", "lower", 0},
	{"gpusim.pages_written_back", "count", "lower", 0},
	{"gpusim.kernels_run", "count", "higher", 0},
	{"gpusim.refault_share", "share", "lower", 0},

	{"kernels.relu_ns_per_elem", "ns", "lower", 0},
	{"kernels.blackscholes_ns_per_elem", "ns", "lower", 0},
	{"minicuda.triad_ns_per_elem", "ns", "lower", 0},
	{"minicuda.spmv_ns_per_elem", "ns", "lower", 0},
	{"minicuda.compile_cold_us", "us", "lower", 0},
	{"minicuda.compile_cached_us", "us", "lower", 0},
	{"kernels.exec_share", "share", "lower", 0},

	{"go.alloc_kb_per_ce", "kB", "lower", 0},
	{"go.mallocs_per_ce", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"go.goroutines_peak", "count", "lower", 0},
	{"go.heap_inuse_end_mb", "MB", "lower", 0},

	{"trace.overhead_share", "share", "lower", 0},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the one JSON object a single run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fillMetrics turns name→value into the full metric map of one spec list: every
// listed metric is present (0 when the run had nothing to say about it),
// each with its unit.
func fillMetrics(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
