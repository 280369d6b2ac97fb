package main

// launch-stream and launch-sync: two tenants through grout.Dial → gateway
// → controller → two TCP workers, numeric, tiny elementwise kernels. The
// same stack used two ways: launch-stream keeps 64 launches in flight per
// tenant, so pipelining, the optimizer window and batching do their work;
// launch-sync waits for every launch, so nothing overlaps and fixed
// per-CE costs show directly.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"grout"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/workloads"
)

const (
	// launchTenants never exceeds nproc on the reference box: a third
	// client goroutine would take a core from the system under test.
	launchTenants = 2
	launchArrays  = 8
	launchElems   = 4096
	// streamBurst is how many launches launch-stream issues between
	// Syncs (the gateway's default per-tenant queue depth).
	streamBurst = 64

	// Per tenant at the reference ten seconds, per segment.
	streamBurstsPerSegment = 330   // ×64 launches ×5 segments = 105 600
	syncPairsPerSegment    = 17500 // ×5 segments = 87 500 Launch+Sync pairs
)

type launchKernel uint8

const (
	kRelu launchKernel = iota
	kScale
	kCopy
	kAxpy
)

var launchKernelNames = [...]string{"relu", "scale", "copy", "axpy"}

// launchOp is one generated launch: kernel, destination array a, source
// array b (unused by relu), scalar alpha (scale and axpy).
type launchOp struct {
	kernel launchKernel
	a, b   uint8
	alpha  float64
}

// invocation expresses op against a tenant's array IDs.
func (op launchOp) args(ids []dag.ArrayID) []core.ArgRef {
	n := core.ScalarRef(launchElems)
	switch op.kernel {
	case kRelu:
		return []core.ArgRef{core.ArrRef(ids[op.a]), n}
	case kCopy:
		return []core.ArgRef{core.ArrRef(ids[op.a]), core.ArrRef(ids[op.b]), n}
	default: // scale, axpy: (y, x, alpha, n)
		return []core.ArgRef{core.ArrRef(ids[op.a]), core.ArrRef(ids[op.b]), core.ScalarRef(op.alpha), n}
	}
}

// genLaunchOps draws n ops from rng. It tracks an upper bound on each
// array's magnitude and steers scale factors and axpy so values neither
// overflow nor decay into denormals over hundreds of thousands of ops —
// the output check requires every element finite, and denormal
// arithmetic would make kernel time depend on the seed.
func genLaunchOps(rng *rand.Rand, n int) []launchOp {
	bound := make([]float64, launchArrays)
	for i := range bound {
		bound[i] = 1
	}
	alphas := [...]float64{0.5, 0.75, 1.25, 1.5}
	ops := make([]launchOp, n)
	for i := range ops {
		op := launchOp{kernel: launchKernel(rng.Intn(4)), a: uint8(rng.Intn(launchArrays))}
		op.b = uint8((int(op.a) + 1 + rng.Intn(launchArrays-1)) % launchArrays)
		sign := float64(1 - 2*rng.Intn(2))
		if op.kernel == kAxpy && bound[op.a]+1.5*bound[op.b] > 1e3 {
			op.kernel = kScale
		}
		switch op.kernel {
		case kCopy:
			bound[op.a] = bound[op.b]
		case kScale:
			mag := alphas[rng.Intn(2)] // shrink
			if bound[op.b] < 1 {
				mag = alphas[2+rng.Intn(2)] // grow
			}
			op.alpha = sign * mag
			bound[op.a] = mag * bound[op.b]
		case kAxpy:
			mag := alphas[rng.Intn(len(alphas))]
			op.alpha = sign * mag
			bound[op.a] += mag * bound[op.b]
		}
		ops[i] = op
	}
	return ops
}

// launchClient is what a tenant program needs from its session.
type launchClient interface {
	workloads.Session
	Sync() error
}

// launchTenant is one client program: its session, arrays and op list.
type launchTenant struct {
	client  launchClient
	ids     []dag.ArrayID
	initial [][]float32
	// rng continues after the array contents into the op list, which
	// measure draws before it starts the clock: generating a few hundred
	// thousand ops is the harness's work, not the system's set-up.
	rng *rand.Rand
	ops []launchOp
}

type launchWorkload struct {
	// depth is how many launches a tenant issues between Syncs: 64 for
	// launch-stream, 1 for launch-sync.
	depth int

	fleet   *gatewayFleet
	tr      *tracer
	tenants []*launchTenant

	opsPerTenant  int
	queueDepthMax int
	splits        [][]opSplit // per tenant, traced launch-sync only
}

func (w *launchWorkload) sizeFor(scale float64) int {
	if w.depth == 1 {
		return segments * scaled(syncPairsPerSegment, scale, 8)
	}
	return segments * streamBurst * scaled(streamBurstsPerSegment, scale, 1)
}

func (w *launchWorkload) setUp(cfg runConfig, scale float64, tr *tracer) error {
	w.tr = tr
	var err error
	if w.fleet, err = startGatewayFleet(launchTenants, tr); err != nil {
		return err
	}
	w.opsPerTenant = w.sizeFor(scale)
	for t, c := range w.fleet.clients {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(t)))
		ten := &launchTenant{client: c, rng: rng}
		for a := 0; a < launchArrays; a++ {
			id, err := c.NewArray(memmodel.Float32, launchElems)
			if err != nil {
				return err
			}
			init := make([]float32, launchElems)
			buf := c.Buffer(id)
			for i := range init {
				init[i] = float32(rng.Float64()*2 - 1)
				buf.Set(i, float64(init[i]))
			}
			if err := c.HostWrite(id); err != nil {
				return err
			}
			ten.ids = append(ten.ids, id)
			ten.initial = append(ten.initial, init)
		}
		w.tenants = append(w.tenants, ten)
	}
	return nil
}

// poll samples the gateway's admission backlog (the traced run calls it
// at 10 Hz).
func (w *launchWorkload) poll() {
	depth := 0
	for _, sh := range w.fleet.gateway.Snapshot().Shards {
		depth += sh.QueueDepth
	}
	if depth > w.queueDepthMax {
		w.queueDepthMax = depth
	}
}

// tenantRun is what one tenant goroutine measured.
type tenantRun struct {
	lat      *latencySet
	segWall  [segments]time.Duration
	ops      int
	failed   int
	firstErr error
}

// did counts n issued operations; a non-nil err is one failed operation.
func (r *tenantRun) did(n int, err error) {
	r.ops += n
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// syncStep is one launch-sync step: Launch, then Sync, timed as a pair.
// Traced, the pair is one open step the seams below attribute their time
// to, which is what makes the split exact.
func (w *launchWorkload) syncStep(t, i, seg int, out *tenantRun) {
	ten := w.tenants[t]
	op := ten.ops[i]
	opStart := w.tr.beginOp(t, uint64(i))
	t0 := time.Now()
	err := ten.client.Launch(launchKernelNames[op.kernel], 1, 1, op.args(ten.ids)...)
	t1 := time.Now()
	if err == nil {
		err = ten.client.Sync()
	}
	t2 := time.Now()
	out.did(2, err)
	if err == nil {
		out.lat.add(seg, t2.Sub(t0))
	}
	if w.tr != nil {
		w.tr.record(spSessionLaunch, w.tr.at(t0), w.tr.at(t1), t, false)
		w.tr.record(spSessionSync, w.tr.at(t1), w.tr.at(t2), t, err != nil)
		if split := w.tr.endOp(t, opStart); err == nil {
			w.splits[t] = append(w.splits[t], split)
		}
	}
}

// streamStep is one launch-stream step: a Launch whose ack is timed, and a
// Sync after every streamBurst of them.
func (w *launchWorkload) streamStep(t, i, seg int, out *tenantRun) {
	ten := w.tenants[t]
	op := ten.ops[i]
	t0 := time.Now()
	err := ten.client.Launch(launchKernelNames[op.kernel], 1, 1, op.args(ten.ids)...)
	t1 := time.Now()
	out.did(1, err)
	if err == nil {
		out.lat.add(seg, t1.Sub(t0))
	}
	if w.tr != nil {
		w.tr.record(spSessionLaunch, w.tr.at(t0), w.tr.at(t1), t, err != nil)
	}
	if (i+1)%w.depth != 0 {
		return
	}
	start := w.tr.now()
	err = ten.client.Sync()
	w.tr.record(spSessionSync, start, w.tr.now(), t, err != nil)
	out.did(1, err)
}

func (w *launchWorkload) runTenant(t int) tenantRun {
	n := len(w.tenants[t].ops)
	perSeg := n / segments
	out := tenantRun{lat: newLatencySet(segments, perSeg)}
	step := w.streamStep
	if w.depth == 1 {
		step = w.syncStep
		if w.tr != nil {
			w.splits[t] = make([]opSplit, 0, n)
		}
	}
	for seg := 0; seg < segments; seg++ {
		segStart := time.Now()
		for i := seg * perSeg; i < (seg+1)*perSeg; i++ {
			step(t, i, seg, &out)
		}
		out.segWall[seg] = time.Since(segStart)
	}
	return out
}

func (w *launchWorkload) measure() (phaseResult, error) {
	for _, ten := range w.tenants {
		ten.ops = genLaunchOps(ten.rng, w.opsPerTenant)
	}
	w.splits = make([][]opSplit, len(w.tenants))
	runs := make([]tenantRun, len(w.tenants))
	var wg sync.WaitGroup
	start := time.Now()
	for t := range w.tenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runs[t] = w.runTenant(t)
		}(t)
	}
	wg.Wait()
	wall := time.Since(start)

	res := phaseResult{wall: wall, lat: newLatencySet(segments, 0), layer: map[string]float64{}}
	perSeg := len(w.tenants[0].ops) / segments
	var segRates []float64
	for seg := 0; seg < segments; seg++ {
		rate := 0.0
		for _, r := range runs {
			rate += float64(perSeg) / r.segWall[seg].Seconds()
		}
		segRates = append(segRates, rate)
	}
	res.cePerSec = median(segRates)
	for t, r := range runs {
		if r.firstErr != nil {
			fmt.Fprintf(logOut, "launch tenant %d: %d failed ops, first: %v\n", t, r.failed, r.firstErr)
		}
		res.lat.merge(r.lat)
		res.attempted += r.ops
		res.failed += r.failed
		res.ces += len(w.tenants[t].ops)
	}
	w.collect(res.layer, res.ces)
	return res, nil
}

// collect reads the counters the gateway, controller and workers keep.
func (w *launchWorkload) collect(layer map[string]float64, ces int) {
	snap := w.fleet.gateway.Snapshot()
	var waitP99 time.Duration
	for _, ts := range snap.Tenants {
		layer["server.admitted"] += float64(ts.Admitted)
		layer["server.completed"] += float64(ts.Completed)
		layer["server.aborted"] += float64(ts.Aborted)
		layer["server.dropped"] += float64(ts.Dropped)
		layer["server.shed"] += float64(ts.LaunchesShed)
		if ts.AdmissionWaitP99 > waitP99 {
			waitP99 = ts.AdmissionWaitP99
		}
	}
	layer["server.admission_wait_p99_us"] = float64(waitP99) / 1e3
	layer["server.queue_depth_max"] = float64(w.queueDepthMax)
	var totals coreTotals
	totals.add(w.fleet.ctl, ces)
	totals.into(layer)
	deviceCounters(layer, w.fleet.workerDeviceStats())
	w.splitMetrics(layer)
}

// splitMetrics reports the decomposition of the median launch-sync step:
// each component averaged over the steps whose total lies between the
// 45th and 55th percentile. Within a step the parts add up exactly (self
// time is the total minus what the seams below saw), so their band means
// add up to the band's mean total, which sits at the median.
func (w *launchWorkload) splitMetrics(layer map[string]float64) {
	var all []opSplit
	for _, s := range w.splits {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].totalNs < all[j].totalNs })
	lo, hi := len(all)*45/100, len(all)*55/100
	if hi <= lo {
		lo, hi = 0, len(all)
	}
	var total, pol, launch, other float64
	for _, s := range all[lo:hi] {
		total += float64(s.totalNs)
		pol += float64(s.policyNs)
		launch += float64(s.launchNs)
		other += float64(s.otherNs)
	}
	n := float64(hi-lo) * 1e3 // → µs per step
	layer["split.policy_us"] = pol / n
	layer["split.transport_launch_us"] = launch / n
	layer["split.transport_other_us"] = other / n
	layer["split.above_fabric_self_us"] = (total - pol - launch - other) / n
	if p50 := float64(all[len(all)/2].totalNs); p50 > 0 {
		layer["split.sum_over_p50"] = total / float64(hi-lo) / p50
	}
}

// check reads every array back and compares it, bit for bit, with the
// same op list replayed through blocking launches on an in-process
// simulated cluster with the optimizer window off.
func (w *launchWorkload) check() (attempted, failed int, err error) {
	type verdict struct {
		bad int
		err error
	}
	verdicts := make([]verdict, len(w.tenants))
	var wg sync.WaitGroup
	for t := range w.tenants {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			verdicts[t].bad, verdicts[t].err = w.checkTenant(w.tenants[t])
		}(t)
	}
	wg.Wait()
	for _, v := range verdicts {
		if v.err != nil {
			return 0, 0, v.err
		}
		attempted += launchArrays
		failed += v.bad
	}
	return attempted, failed, nil
}

func (w *launchWorkload) checkTenant(ten *launchTenant) (bad int, err error) {
	ref, err := grout.NewSimulatedCluster(grout.Config{Workers: fleetWorkers, Numeric: true, OptimizeWindow: -1})
	if err != nil {
		return 0, err
	}
	defer ref.Close()
	s := &workloads.Grout{Ctl: ref.Controller}
	ids := make([]dag.ArrayID, launchArrays)
	for a := range ids {
		if ids[a], err = s.NewArray(memmodel.Float32, launchElems); err != nil {
			return 0, err
		}
		buf := s.Buffer(ids[a])
		for i, v := range ten.initial[a] {
			buf.Set(i, float64(v))
		}
		if err := s.HostWrite(ids[a]); err != nil {
			return 0, err
		}
	}
	for _, op := range ten.ops {
		if err := s.Launch(launchKernelNames[op.kernel], 1, 1, op.args(ids)...); err != nil {
			return 0, fmt.Errorf("reference replay: %w", err)
		}
	}
	for a := range ids {
		if err := s.HostRead(ids[a]); err != nil {
			return 0, err
		}
		if err := ten.client.HostRead(ten.ids[a]); err != nil {
			bad++
			continue
		}
		if !sameFinite(ten.client.Buffer(ten.ids[a]), s.Buffer(ids[a])) {
			bad++
		}
	}
	return bad, nil
}

// sameFinite reports whether got and want hold the same elements and all
// of them are finite.
func sameFinite(got, want workloads.BufferLike) bool {
	if got == nil || want == nil || got.Len() != want.Len() {
		return false
	}
	for i := 0; i < want.Len(); i++ {
		g := got.At(i)
		if g != want.At(i) || math.IsNaN(g) || math.IsInf(g, 0) {
			return false
		}
	}
	return true
}

func (w *launchWorkload) tearDown() error {
	if w.fleet == nil {
		return nil
	}
	return w.fleet.close()
}
