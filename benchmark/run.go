package main

// One run: set the workload up several times, measure its fixed op list
// once, check the outputs, report. A traced run does the same at half the
// size twice — untraced, then behind the seam wrappers — so the tracing
// overhead comes from one process on one day.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	// seconds sizes the fixed op list: the counts are what the seed
	// commit completes in about this long on the reference box. It is
	// never a deadline — a faster commit finishes the same work sooner.
	seconds float64
	trace   bool
	// outDir receives the Chrome trace of a traced run ("" writes none).
	outDir string
}

// scale is the size of this run relative to the reference ten seconds.
func (c runConfig) scale() float64 { return c.seconds / 10 }

// scaled sizes an op count: base at ten seconds, never below floor.
func scaled(base int, scale float64, floor int) int {
	n := int(math.Round(float64(base) * scale))
	if n < floor {
		n = floor
	}
	return n
}

// segments is how many stretches the measured phase is cut into; rates and
// tail percentiles are reported as the median over them.
const segments = 5

// phaseResult is what one measured phase hands back.
type phaseResult struct {
	ces      int
	wall     time.Duration
	cePerSec float64
	lat      *latencySet
	// attempted and failed count the operations the phase issued (every
	// Launch, Sync, HostRead, HostWrite; every sweep cell).
	attempted, failed int
	// layer carries per-layer values only this workload can produce
	// (counters read off the fleet, phase throughputs).
	layer map[string]float64
}

// workload is one benchmark workload's life cycle. setUp may be called on
// several fresh values in a row (set-up time is the median over them);
// only the last one goes on to measure.
type workload interface {
	setUp(cfg runConfig, scale float64, tr *tracer) error
	measure() (phaseResult, error)
	// check verifies the outputs of measure against an independent
	// reference and returns how many checks it made and how many failed.
	check() (attempted, failed int, err error)
	tearDown() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case wlLaunchStream:
		return &launchWorkload{depth: streamBurst}, nil
	case wlLaunchSync:
		return &launchWorkload{depth: 1}, nil
	case wlNumericApps:
		return &appsWorkload{}, nil
	case wlBulkMove:
		return &bulkWorkload{}, nil
	case wlOversubSweep:
		return &oversubWorkload{}, nil
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q (have %v)", name, workloadNames)
}

// setupReps is how many times a run sets its workload up. Set-up is
// milliseconds for most workloads, so a single sample is mostly noise.
const setupReps = 9

// onePass is one set-up → measure → check → tear-down cycle.
type onePass struct {
	setupS  float64
	phase   phaseResult
	rssMB   float64
	checks  int
	badOnes int
	// gs is the Go runtime's view of the measured phase (traced passes).
	gs goStats
}

// runPass sets the workload up reps times, measures the last instance and
// checks its outputs. With a tracer, a sampler runs beside the measured
// phase (and polls the workload, if it has something to poll).
func runPass(cfg runConfig, scale float64, tr *tracer, reps int) (onePass, error) {
	var out onePass
	var w workload
	var setups []float64
	for i := 0; i < reps; i++ {
		var err error
		if w, err = newWorkload(cfg.workload); err != nil {
			return out, err
		}
		// Each set-up starts from a collected heap, or the garbage of the
		// one before decides whether this one pays for a GC cycle.
		runtime.GC()
		start := time.Now()
		if err := w.setUp(cfg, scale, tr); err != nil {
			_ = w.tearDown()
			return out, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < reps-1 {
			if err := w.tearDown(); err != nil {
				return out, fmt.Errorf("%s: tear-down: %w", cfg.workload, err)
			}
		}
	}
	out.setupS = median(setups)
	defer w.tearDown()

	var sampler *goSampler
	if tr != nil {
		var poll func()
		if p, ok := w.(interface{ poll() }); ok {
			poll = p.poll
		}
		sampler = startGoSampler(poll)
	}
	phase, err := w.measure()
	if sampler != nil {
		out.gs = sampler.finish()
	}
	if err != nil {
		return out, fmt.Errorf("%s: measure: %w", cfg.workload, err)
	}
	out.phase = phase
	// Read the high-water mark before the output check: the reference
	// computation is the harness's memory, not the system's.
	out.rssMB = peakRSSMB()
	out.checks, out.badOnes, err = w.check()
	if err != nil {
		return out, fmt.Errorf("%s: output check: %w", cfg.workload, err)
	}
	return out, nil
}

// runOne executes one invocation and returns the result to print.
func runOne(cfg runConfig) (runResult, error) {
	if cfg.seconds <= 0 {
		return runResult{}, fmt.Errorf("benchmark: -seconds must be positive")
	}
	if !cfg.trace {
		p, err := runPass(cfg, cfg.scale(), nil, setupReps)
		if err != nil {
			return runResult{}, err
		}
		fmt.Fprintf(logOut, "%s: launch_p50_us over %d samples\n", cfg.workload, p.phase.lat.count())
		vals := map[string]float64{
			"setup_s":       p.setupS,
			"ce_per_s":      p.phase.cePerSec,
			"launch_p50_us": p.phase.lat.quantileUs(0.50),
			"peak_rss_mb":   p.rssMB,
		}
		return result(endToEndSpecs, vals, p), nil
	}

	half := cfg.scale() / 2
	plain, err := runPass(cfg, half, nil, 1)
	if err != nil {
		return runResult{}, err
	}
	tr := newTracer(tenantCount(cfg.workload), arraysPerTenant(cfg.workload))
	traced, err := runPass(cfg, half, tr, 1)
	if err != nil {
		return runResult{}, err
	}

	vals := map[string]float64{
		"launch_p99_us":  plain.phase.lat.quantileUs(0.99),
		"launch_p999_us": plain.phase.lat.quantileUs(0.999),
	}
	fmt.Fprintf(logOut, "%s: launch percentiles over %d samples (untraced half)\n", cfg.workload, plain.phase.lat.count())
	for k, v := range plain.phase.layer {
		vals[k] = v
	}
	// Counters and seam figures come from the traced half; where both
	// halves report a key the traced one wins, except the phase
	// throughputs, which are end-to-end figures and stay untraced.
	for k, v := range traced.phase.layer {
		switch k {
		case "move_large_mb_per_s", "move_small_per_s", "sim_makespan_s", "scaleout_speedup":
		default:
			vals[k] = v
		}
	}
	seamMetrics(vals, tr, traced.phase, cfg.workload != wlOversubSweep)
	goMetrics(vals, traced.gs, traced.phase.ces)
	if plain.phase.cePerSec > 0 {
		vals["trace.overhead_share"] = 1 - traced.phase.cePerSec/plain.phase.cePerSec
	}
	if err := runProbes(vals); err != nil {
		return runResult{}, err
	}
	if lp50 := vals["transport.launch_us_p50"]; lp50 > 0 {
		// What a worker adds to the wire floor: local scheduling, the
		// UVM model and, in numeric mode, the kernel itself.
		vals["worker.exec_us_per_launch"] = lp50 - vals["transport.worker_ping_us_p50"]
	}
	both := onePass{checks: plain.checks + traced.checks, badOnes: plain.badOnes + traced.badOnes}
	both.phase.attempted = plain.phase.attempted + traced.phase.attempted
	both.phase.failed = plain.phase.failed + traced.phase.failed
	if n := both.phase.attempted + both.checks; n > 0 {
		vals["failed_share"] = float64(both.phase.failed+both.badOnes) / float64(n)
	}
	res := result(perLayerSpecs, vals, both)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.writeChromeTrace(path); err != nil {
			return runResult{}, fmt.Errorf("benchmark: writing Chrome trace: %w", err)
		}
	}
	return res, nil
}

func result(specs []metricSpec, vals map[string]float64, p onePass) runResult {
	attempted := p.phase.attempted + p.checks
	failed := p.phase.failed + p.badOnes
	if attempted < 1 {
		attempted = 1
	}
	return runResult{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   fillMetrics(specs, vals),
	}
}

// seamMetrics derives the per-layer figures that come from spans. sockets
// says the fabric seam wrapped a TCPFabric: only then are its spans the
// transport layer's. Around a LocalFabric the same spans are the worker
// side itself (grcuda and gpusim host time), reported as
// worker.exec_us_per_launch.
func seamMetrics(vals map[string]float64, tr *tracer, phase phaseResult, sockets bool) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	launch := tr.stats(spFabricLaunch)
	ensure := tr.stats(spFabricEnsure)
	move := tr.stats(spFabricMove)
	other := tr.stats(spFabricOther)
	assign := tr.stats(spPolicyAssign)
	sLaunch := tr.stats(spSessionLaunch)
	sSync := tr.stats(spSessionSync)

	if sockets {
		vals["transport.launch_calls"] = float64(launch.calls)
		vals["transport.launch_us_p50"] = us(launch.p50)
		vals["transport.launch_us_p99"] = us(launch.p99)
		vals["transport.ensure_calls"] = float64(ensure.calls)
		vals["transport.move_calls"] = float64(move.calls)
		vals["transport.move_mb"] = vals["core.moved_mb"]
		vals["transport.move_busy_s"] = move.busy.Seconds()
		vals["transport.errors"] = float64(launch.errors + ensure.errors + move.errors + other.errors)
	} else if launch.calls > 0 {
		vals["worker.exec_us_per_launch"] = us(launch.busy) / float64(launch.calls)
	}
	vals["policy.assign_calls"] = float64(assign.calls)
	if assign.calls > 0 {
		vals["policy.assign_ns_per_call"] = float64(assign.busy) / float64(assign.calls)
	}
	if phase.ces > 0 {
		// Statistical, not exact, wherever launches are in flight while
		// the client does something else: dispatchers then overlap fabric
		// time the client never waits for, and the figure can go negative.
		session := sLaunch.busy + sSync.busy
		below := assign.busy + launch.busy + ensure.busy + move.busy + other.busy
		vals["stack.above_fabric_self_us_per_ce"] = us(session-below) / float64(phase.ces)
		if phase.wall > 0 {
			vals["kernels.exec_share"] = launch.busy.Seconds() / phase.wall.Seconds()
		}
	}
	if _, gateway := vals["server.admitted"]; gateway {
		vals["server.launch_ack_us_p50"] = us(sLaunch.p50)
		vals["server.launch_ack_us_p99"] = us(sLaunch.p99)
		vals["server.sync_us_p50"] = us(sSync.p50)
		vals["server.sync_us_p99"] = us(sSync.p99)
	}
}

func goMetrics(vals map[string]float64, gs goStats, ces int) {
	if ces > 0 {
		vals["go.alloc_kb_per_ce"] = float64(gs.allocBytes) / 1024 / float64(ces)
		vals["go.mallocs_per_ce"] = float64(gs.mallocs) / float64(ces)
	}
	vals["go.gc_pause_ms"] = float64(gs.gcPause) / 1e6
	vals["go.goroutines_peak"] = float64(gs.goroutines)
	vals["go.heap_inuse_end_mb"] = float64(gs.heapInuse) / (1 << 20)
}

// tenantCount is how many client programs the workload runs at once.
func tenantCount(workload string) int {
	if workload == wlLaunchStream || workload == wlLaunchSync {
		return launchTenants
	}
	return 1
}

// arraysPerTenant is the tenant-major stride of global array IDs in the
// gateway workloads; 0 elsewhere (the seams then leave tenant unknown).
func arraysPerTenant(workload string) int {
	if workload == wlLaunchStream || workload == wlLaunchSync {
		return launchArrays
	}
	return 0
}
