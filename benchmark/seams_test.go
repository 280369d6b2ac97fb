package main

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/policy"
	"grout/internal/transport"
)

// The controller finds a fabric's or policy's fast paths by type
// assertion, so a wrapper that adds or drops an optional interface makes
// the traced run a different program (PartitionFabric's fleet-wide Healthy
// was that class of bug). Each wrapper must expose exactly what it wraps.
func TestFabricWrappersExposeExactlyTheInnerOptionals(t *testing.T) {
	tr := newTracer(1, 0)

	local := core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), false)
	w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tcp, err := transport.Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()

	for name, inner := range map[string]core.Fabric{"LocalFabric": local, "TCPFabric": tcp} {
		wrapped, err := wrapFabric(inner, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wrapped == inner {
			t.Fatalf("%s: traced wrap returned the fabric itself", name)
		}
		if got, want := fabricOptionals(wrapped), fabricOptionals(inner); got != want {
			t.Errorf("%s: wrapper implements [BulkMover StallPredictor BulkEstimator ConcurrentDispatcher KernelBuilder] = %v, inner %v",
				name, got, want)
		}
		if plain, err := wrapFabric(inner, nil); err != nil || plain != inner {
			t.Errorf("%s: untraced wrap must return the fabric itself (got %T, %v)", name, plain, err)
		}
	}
	if cd := fabricOptionals(tcp)[3]; !cd || !tcp.ConcurrentDispatch() {
		t.Fatal("TCPFabric no longer dispatches concurrently; the launch workloads assume it does")
	}

	// A fabric with an optional set no wrapper matches is refused, not
	// wrapped with interfaces added or missing.
	bare := struct{ core.Fabric }{local}
	if _, err := wrapFabric(bare, tr); err == nil {
		t.Error("a fabric with no optional interfaces was wrapped; want an error")
	}
}

func TestPolicyWrappersExposeExactlyTheInnerOptionals(t *testing.T) {
	tr := newTracer(1, 0)
	seen := map[[2]bool]bool{}
	for _, name := range policy.Names() {
		inner, err := policy.New(name, []int{1}, policy.Medium)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := wrapPolicy(inner, tr)
		if got, want := policyOptionals(wrapped), policyOptionals(inner); got != want {
			t.Errorf("%s: wrapper implements [BatchAssigner StallAware] = %v, inner %v", name, got, want)
		}
		if wrapped.Name() != inner.Name() || wrapped.NeedsDataView() != inner.NeedsDataView() {
			t.Errorf("%s: wrapper changed Name or NeedsDataView", name)
		}
		if wrapPolicy(inner, nil) != inner {
			t.Errorf("%s: untraced wrap must return the policy itself", name)
		}
		seen[policyOptionals(inner)] = true
	}
	for _, shape := range [][2]bool{{false, false}, {true, false}, {true, true}} {
		if !seen[shape] {
			t.Errorf("no registered policy has the optional set %v any more; a wrapper shape is untested", shape)
		}
	}
	// The restricted policy forwards whatever its inner policy has; it is
	// the one shape the registry does not produce.
	stallOnly := stallOnlyPolicy{policy.NewRoundRobin()}
	if got := policyOptionals(wrapPolicy(stallOnly, tr)); got != [2]bool{false, true} {
		t.Errorf("stall-only policy: wrapper implements %v", got)
	}
}

type stallOnlyPolicy struct{ policy.Policy }

func (stallOnlyPolicy) NeedsStallView() bool { return true }

// A traced run must be the same run: same outputs (both halves pass the
// output check against the independent reference) and the same exact
// counters.
func TestTracedRunMatchesUntraced(t *testing.T) {
	exact := map[string][]string{
		// server.completed is bumped by a goroutine per launch after the
		// launch's Pending resolves, so it can trail the final Sync.
		wlLaunchStream: {"core.dag_vertices", "server.admitted", "gpusim.kernels_run"},
		wlLaunchSync:   {"core.dag_vertices", "server.admitted", "gpusim.kernels_run"},
		wlNumericApps:  {"core.dag_vertices", "gpusim.kernels_run"},
		wlBulkMove:     {"core.dag_vertices", "core.moved_mb", "core.p2p_moves", "gpusim.kernels_run"},
		wlOversubSweep: {"core.dag_vertices", "core.moved_mb", "core.p2p_moves", "sim_makespan_s", "scaleout_speedup",
			"gpusim.pages_in", "gpusim.pages_evicted", "gpusim.pages_written_back", "gpusim.kernels_run"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 3, seconds: tinySeconds}
			plain, err := runPass(cfg, cfg.scale(), nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runPass(cfg, cfg.scale(), newTracer(tenantCount(name), arraysPerTenant(name)), 1)
			if err != nil {
				t.Fatal(err)
			}
			for label, p := range map[string]onePass{"untraced": plain, "traced": traced} {
				if p.phase.failed != 0 || p.badOnes != 0 {
					t.Errorf("%s: %d failed operations, %d of %d output checks failed",
						label, p.phase.failed, p.badOnes, p.checks)
				}
			}
			if plain.phase.ces != traced.phase.ces || plain.phase.attempted != traced.phase.attempted ||
				plain.checks != traced.checks {
				t.Errorf("op counts differ: untraced %d CEs / %d ops / %d checks, traced %d / %d / %d",
					plain.phase.ces, plain.phase.attempted, plain.checks,
					traced.phase.ces, traced.phase.attempted, traced.checks)
			}
			for _, k := range exact[name] {
				if a, b := plain.phase.layer[k], traced.phase.layer[k]; a != b {
					t.Errorf("%s: untraced %v, traced %v", k, a, b)
				} else if a == 0 {
					t.Errorf("%s is 0 in both runs; the counter is not being read", k)
				}
			}
		})
	}
}
