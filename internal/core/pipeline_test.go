package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

const ppElems = 256

// ppPolicies builds fresh instances of the four paper policies (they keep
// internal state and must not be shared between controllers).
func ppPolicies() map[string]func() policy.Policy {
	return map[string]func() policy.Policy{
		"round-robin": func() policy.Policy { return policy.NewRoundRobin() },
		"vector-step": func() policy.Policy {
			p, err := policy.NewVectorStep([]int{1, 2})
			if err != nil {
				panic(err)
			}
			return p
		},
		"min-transfer-size": func() policy.Policy { return policy.NewMinTransferSize(policy.Medium) },
		"min-transfer-time": func() policy.Policy { return policy.NewMinTransferTime(policy.Medium) },
	}
}

// ppSystem builds a 4-worker numeric system with 6 arrays.
func ppSystem(pol policy.Policy, opts Options) (*Controller, []dag.ArrayID) {
	return ppSystemOn(NewLocalFabric(cluster.New(cluster.PaperSpec(4)), kernels.StdRegistry(), true), pol, opts)
}

// ppSystemOn is ppSystem over a given 4-worker numeric fabric.
func ppSystemOn(fab Fabric, pol policy.Policy, opts Options) (*Controller, []dag.ArrayID) {
	opts.Numeric = true
	ctl := NewController(fab, pol, opts)
	ids := make([]dag.ArrayID, 6)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, ppElems)
		if err != nil {
			panic(err)
		}
		for j := 0; j < ppElems; j++ {
			arr.Buf.Set(j, float64(i+1)*float64(j%17)-8)
		}
		ids[i] = arr.ID
	}
	return ctl, ids
}

// ppStream derives a random CE stream from a seed: fills (write-only full
// overwrites), relu (read-write), copy (write+read, sometimes aliased),
// axpy (read-write + read), with occasional host reads/writes as
// synchronization points.
type ppOp struct {
	inv      Invocation
	hostRead dag.ArrayID // when nonzero, a HostRead instead of a launch
	hostWr   dag.ArrayID // when nonzero, a HostWrite instead of a launch
}

func ppStream(seed int64, ids []dag.ArrayID, n int) []ppOp {
	rng := rand.New(rand.NewSource(seed))
	pick := func() ArgRef { return ArrRef(ids[rng.Intn(len(ids))]) }
	nArg := ScalarRef(float64(ppElems))
	ops := make([]ppOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(20); {
		case r == 0:
			ops = append(ops, ppOp{hostRead: ids[rng.Intn(len(ids))]})
		case r == 1:
			ops = append(ops, ppOp{hostWr: ids[rng.Intn(len(ids))]})
		case r < 6:
			ops = append(ops, ppOp{inv: Invocation{Kernel: "fill",
				Args: []ArgRef{pick(), ScalarRef(float64(rng.Intn(9)) - 4), nArg}}})
		case r < 11:
			ops = append(ops, ppOp{inv: Invocation{Kernel: "relu",
				Args: []ArgRef{pick(), nArg}}})
		case r < 15:
			ops = append(ops, ppOp{inv: Invocation{Kernel: "copy",
				Args: []ArgRef{pick(), pick(), nArg}}})
		default:
			ops = append(ops, ppOp{inv: Invocation{Kernel: "axpy",
				Args: []ArgRef{pick(), pick(), ScalarRef(0.5), nArg}}})
		}
	}
	return ops
}

// ppRun drives a stream — every launch by Submit, or with launch by Launch
// — and returns the trace with wall-clock overhead zeroed (the only field
// allowed to differ between the two).
func ppRun(ctl *Controller, ids []dag.ArrayID, ops []ppOp, launch bool) ([]CETrace, error) {
	for _, op := range ops {
		var err error
		switch {
		case op.hostRead != 0:
			_, err = ctl.HostRead(op.hostRead)
		case op.hostWr != 0:
			_, err = ctl.HostWrite(op.hostWr)
		case launch:
			_, err = ctl.Launch(op.inv)
		default:
			_, err = ctl.Submit(op.inv)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := ctl.Drain(); err != nil {
		return nil, err
	}
	traces := append([]CETrace(nil), ctl.Traces()...)
	for i := range traces {
		traces[i].SchedOverhd = 0
	}
	return traces, nil
}

// ensureCounter is a LocalFabric (embedded, so every optional interface
// still answers) that counts EnsureArray calls.
type ensureCounter struct {
	*LocalFabric
	ensures int
}

func (f *ensureCounter) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	f.ensures++
	return f.LocalFabric.EnsureArray(w, meta)
}

// TestPipelineMatchesSerial is the determinism property: for random CE
// streams, seeds, and all four policies, every way of working through the
// engine's FIFO — Launch, whose caller works through every CE itself (the
// reference: the dispatcher goroutine is handed nothing), or Submit, which
// leaves the CEs to the dispatcher goroutine — yields
// bit-identical placements, virtual-time traces, move totals and numerical
// outputs. Every array argument of every launch costs one EnsureArray. Run
// under -race this also exercises the engine's locking.
func TestPipelineMatchesSerial(t *testing.T) {
	type variant struct {
		name   string
		launch bool
	}
	variants := []variant{{"launch", true}, {"submit", false}} // variants[0] is the reference
	polNames := ppPolicies()
	f := func(seed int64) bool {
		for name, mk := range polNames {
			// What one run leaves behind, everything wall-clock zeroed.
			type outcome struct {
				traces  []CETrace
				elapsed sim.VirtualTime
				moved   memmodel.Bytes
				p2p     int
				arrays  [][]float64
			}
			var ref outcome
			for vi, v := range variants {
				fab := &ensureCounter{LocalFabric: NewLocalFabric(cluster.New(cluster.PaperSpec(4)), kernels.StdRegistry(), true)}
				ctl, ids := ppSystemOn(fab, mk(), Options{depth: 8})
				ops := ppStream(seed, ids, 60)
				tr, err := ppRun(ctl, ids, ops, v.launch)
				if err != nil {
					t.Logf("%s %s: %v", name, v.name, err)
					return false
				}
				if v.launch && ctl.DispatcherJobs() != 0 {
					t.Logf("%s %s: the dispatcher goroutine was handed %d CEs, want none",
						name, v.name, ctl.DispatcherJobs())
					return false
				}
				arrayArgs := 0
				for _, op := range ops {
					for _, a := range op.inv.Args {
						if a.IsArray {
							arrayArgs++
						}
					}
				}
				if fab.ensures != arrayArgs || ctl.OptStats() != (OptStats{}) {
					t.Logf("%s seed %d %s: %d EnsureArray calls for %d array arguments, optimizer counters %+v",
						name, seed, v.name, fab.ensures, arrayArgs, ctl.OptStats())
					return false
				}
				got := outcome{traces: tr, elapsed: ctl.Elapsed(), moved: ctl.MovedBytes(), p2p: ctl.P2PMoves()}
				got.arrays = readAll(t, ctl, ids) // after the totals: a host read moves bytes
				if err := ctl.Close(); err != nil {
					t.Logf("%s %s close: %v", name, v.name, err)
					return false
				}
				if vi == 0 {
					ref = got
					continue
				}
				if len(ref.traces) != len(got.traces) {
					t.Logf("%s %s: trace count %d vs %d", name, v.name, len(ref.traces), len(got.traces))
					return false
				}
				for i := range ref.traces {
					if ref.traces[i] != got.traces[i] { // Node is the placement; Start/End the virtual times
						t.Logf("%s seed %d: trace %d differs:\n%s %+v\n%s %+v",
							name, seed, i, variants[0].name, ref.traces[i], v.name, got.traces[i])
						return false
					}
				}
				if ref.elapsed != got.elapsed || ref.moved != got.moved || ref.p2p != got.p2p {
					t.Logf("%s %s: totals differ (%v/%v, %v/%v, %d/%d)", name, v.name,
						ref.elapsed, got.elapsed, ref.moved, got.moved, ref.p2p, got.p2p)
					return false
				}
				// Numerical outputs must agree bit for bit.
				for i := range ref.arrays {
					for j := range ref.arrays[i] {
						if ref.arrays[i][j] != got.arrays[i][j] {
							t.Logf("%s seed %d %s: array %d elem %d: %v vs %v",
								name, seed, v.name, i, j, ref.arrays[i][j], got.arrays[i][j])
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// concFabric is a thread-safe fake fabric that declares itself safe for
// concurrent dispatch, applies fixed virtual costs, and records the order
// and concurrency of launches.
type concFabric struct {
	workers []cluster.NodeID

	mu       sync.Mutex
	order    []dag.ArrayID // first array arg of each launched CE
	inFlight int
	maxSeen  int
	launches int
}

func newConcFabric(n int) *concFabric {
	f := &concFabric{}
	for i := 1; i <= n; i++ {
		f.workers = append(f.workers, cluster.NodeID(i))
	}
	return f
}

func (f *concFabric) ConcurrentDispatch() bool                           { return true }
func (f *concFabric) Workers() []cluster.NodeID                          { return f.workers }
func (f *concFabric) Healthy(w cluster.NodeID) bool                      { return true }
func (f *concFabric) FreeArray(cluster.NodeID, dag.ArrayID) error        { return nil }
func (f *concFabric) EnsureArray(cluster.NodeID, grcuda.ArrayMeta) error { return nil }

func (f *concFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID,
	srcReady sim.VirtualTime, srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	return srcReady + 10, nil
}

func (f *concFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.mu.Lock()
	f.inFlight++
	if f.inFlight > f.maxSeen {
		f.maxSeen = f.inFlight
	}
	f.launches++
	for _, a := range inv.Args {
		if a.IsArray {
			f.order = append(f.order, a.Array)
			break
		}
	}
	f.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // widen the overlap window
	f.mu.Lock()
	f.inFlight--
	f.mu.Unlock()
	return ready + 100, nil
}

func (f *concFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return 5
}

// TestConcurrentFabricOrdering: four interleaved read-write chains, one per
// array, round-robin over four workers. On a concurrent fabric without a
// launch stream every launch is dispatched blocking, once per CE and — the
// engine being one FIFO — in submission order, so each chain runs in order
// and nothing overlaps. Overlap across workers is what a launch stream is
// for: on the streaming fake the same program has launches started and
// unanswered on at least two workers at once.
func TestConcurrentFabricOrdering(t *testing.T) {
	const rounds = 12
	program := func(ctl *Controller, arrs []dag.ArrayID, from, to int) {
		t.Helper()
		for r := from; r < to; r++ {
			for _, id := range arrs {
				if _, err := ctl.Submit(Invocation{Kernel: "relu",
					Args: []ArgRef{ArrRef(id), ScalarRef(float64(ppElems))}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	fab := newConcFabric(4)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{})
	defer ctl.Close()
	arrs := make([]dag.ArrayID, 4)
	for i := range arrs {
		arr, err := ctl.NewArray(memmodel.Float32, ppElems)
		if err != nil {
			t.Fatal(err)
		}
		arrs[i] = arr.ID
	}
	program(ctl, arrs, 0, rounds)
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	fab.mu.Lock()
	if fab.launches != rounds*len(arrs) || fab.maxSeen != 1 {
		t.Fatalf("%d launches, at most %d at once; want %d, one at a time",
			fab.launches, fab.maxSeen, rounds*len(arrs))
	}
	for i, id := range fab.order { // submission order: the arrays in turn
		if id != arrs[i%len(arrs)] {
			t.Fatalf("launch %d is on array %d, want %d (submission order)", i, id, arrs[i%len(arrs)])
		}
	}
	fab.mu.Unlock()

	// The streaming fake. The first round ships each array to its worker
	// through the blocking path; with the workers held, every later launch
	// is started behind its chain's previous one and stays unanswered.
	sctl, sfab, ids := newStreamSystem(t, policy.NewRoundRobin(), Options{})
	program(sctl, ids[:4], 0, 1)
	if err := sctl.Drain(); err != nil {
		t.Fatal(err)
	}
	sfab.mu.Lock()
	sfab.hold = true
	sfab.mu.Unlock()
	program(sctl, ids[:4], 1, rounds)
	if !returnsWithin(5*time.Second, func() {
		sfab.mu.Lock()
		for sfab.maxBusy < 2 && !sfab.stop {
			sfab.cond.Wait()
		}
		sfab.mu.Unlock()
	}) {
		t.Error("launches never in flight on two workers at once")
	}
	sfab.mu.Lock()
	sfab.hold = false
	sfab.cond.Broadcast()
	sfab.mu.Unlock()
	if err := sctl.Drain(); err != nil {
		t.Fatal(err)
	}
	sfab.mu.Lock()
	defer sfab.mu.Unlock()
	if sfab.starts != (rounds-1)*4 || sfab.maxBusy < 2 {
		t.Fatalf("%d launches streamed, on at most %d workers at once; want %d, on at least 2",
			sfab.starts, sfab.maxBusy, (rounds-1)*4)
	}
}

// chainFabric: same as concFabric but used single-array to assert strict
// ordering of a dependency chain under concurrent dispatch.
func TestConcurrentFabricChainOrder(t *testing.T) {
	fab := newConcFabric(4)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{})
	defer ctl.Close()
	arr, err := ctl.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	for i := 0; i < n; i++ {
		// fill writes the whole array: WAW chain in submission order.
		if _, err := ctl.Submit(Invocation{Kernel: "fill",
			Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(i)), ScalarRef(float64(ppElems))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	fab.mu.Lock()
	defer fab.mu.Unlock()
	if len(fab.order) != n {
		t.Fatalf("launches = %d, want %d", len(fab.order), n)
	}
	// The chain hops workers round-robin, so any reorder would be a
	// missing ancestor wait; traces record monotonically increasing CEs.
	traces := ctl.Traces()
	for i := 1; i < len(traces); i++ {
		if traces[i].CE <= traces[i-1].CE {
			t.Fatalf("chain trace out of order: %v after %v", traces[i].CE, traces[i-1].CE)
		}
		if traces[i].Start < traces[i-1].End {
			t.Fatalf("chain CE %d starts %v before ancestor end %v",
				traces[i].CE, traces[i].Start, traces[i-1].End)
		}
	}
}

// failingFabric wraps LocalFabric: the chosen worker starts failing after
// failAfter launches and reports unhealthy from then on.
type failingFabric struct {
	*LocalFabric
	victim    cluster.NodeID
	failAfter int
	launches  int
	down      bool
}

func (f *failingFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.launches++
	if f.launches > f.failAfter && w == f.victim {
		f.down = true
	}
	if f.down && w == f.victim {
		return 0, fmt.Errorf("worker %v: connection reset", w)
	}
	return f.LocalFabric.Launch(w, inv, ready)
}

func (f *failingFabric) Healthy(w cluster.NodeID) bool {
	if f.down && w == f.victim {
		return false
	}
	return f.LocalFabric.Healthy(w)
}

// TestPipelineFailover pushes a worker failure through the pipelined
// dispatch path: already-queued CEs for the dead worker reschedule onto
// survivors and the stream completes.
func TestPipelineFailover(t *testing.T) {
	clu := cluster.New(cluster.PaperSpec(3))
	fab := &failingFabric{
		LocalFabric: NewLocalFabric(clu, kernels.StdRegistry(), false),
		victim:      cluster.NodeID(2),
		failAfter:   5,
	}
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Failover: true})
	defer ctl.Close()
	arr, err := ctl.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ctl.Submit(Invocation{Kernel: "relu",
			Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(ppElems))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	sawVictimLate := false
	for _, tr := range ctl.Traces()[10:] {
		if tr.Node == fab.victim {
			sawVictimLate = true
		}
	}
	if sawVictimLate {
		t.Fatalf("dead worker still scheduled after failover")
	}
}

// refusingFabric is a LocalFabric that refuses to launch one kernel.
type refusingFabric struct {
	*LocalFabric
	kernel string
}

var errRefused = errors.New("launch refused")

func (f *refusingFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	if inv.Kernel == f.kernel {
		return 0, errRefused
	}
	return f.LocalFabric.Launch(w, inv, ready)
}

// TestErrorStickiness pins pipeline.fail's rule over both calls: a failed
// CE poisons the controller — the next Launch is refused and Drain reports
// the failure — unless it was launched by Launch, whose caller works
// through it itself and is told. Through Submit (the pipelined path) some
// caller may hold a Pending the error cannot reach any more. The deprecated
// window field changes nothing.
func TestErrorStickiness(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		for _, window := range []int{-1, 1} {
			sticks := pipelined
			t.Run(fmt.Sprintf("pipelined=%v/window=%d", pipelined, window), func(t *testing.T) {
				fab := &refusingFabric{
					LocalFabric: NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), false),
					kernel:      "fill",
				}
				ctl := NewController(fab, policy.NewRoundRobin(), Options{OptimizeWindow: window})
				arr, err := ctl.NewArray(memmodel.Float32, ppElems)
				if err != nil {
					t.Fatal(err)
				}
				nArg := ScalarRef(float64(ppElems))
				relu := Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(arr.ID), nArg}}
				if _, err := ctl.Launch(relu); err != nil {
					t.Fatal(err)
				}
				fill := Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(arr.ID), ScalarRef(1), nArg}}
				if pipelined {
					var p *Pending
					if p, err = ctl.Submit(fill); err == nil {
						_, err = p.Wait()
					}
				} else {
					_, err = ctl.Launch(fill)
				}
				if !errors.Is(err, errRefused) {
					t.Fatalf("refused launch returned %v", err)
				}
				_, next := ctl.Launch(relu)
				drain := ctl.Drain()
				if sticks && (!errors.Is(next, errRefused) || !errors.Is(drain, errRefused)) {
					t.Fatalf("after a failed CE: next Launch %v, Drain %v; want both the failure", next, drain)
				}
				if !sticks && (next != nil || drain != nil) {
					t.Fatalf("after a failed CE: next Launch %v, Drain %v; want the controller usable", next, drain)
				}
				if err := ctl.Close(); !errors.Is(err, drain) {
					t.Fatalf("Close returned %v, Drain %v", err, drain)
				}
			})
		}
	}
}

// TestGoroutineBudget: the engine costs one goroutine per controller,
// whatever the fleet size; Close gives it back.
func TestGoroutineBudget(t *testing.T) {
	fab := NewLocalFabric(cluster.New(cluster.PaperSpec(256)), kernels.StdRegistry(), false)
	base := runtime.NumGoroutine()
	ctl := NewController(fab, policy.NewRoundRobin(), Options{})
	if got := runtime.NumGoroutine() - base; got != 1 {
		t.Fatalf("a controller over 256 workers started %d goroutines, want 1", got)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for the dispatcher to return, not for the runtime to
	// stop counting it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the controller", runtime.NumGoroutine(), base)
		}
	}
}

// TestLaunchRunsOnItsCaller: the call, not an option, decides who works
// through a CE. Launches on an idle controller never reach the
// dispatcher goroutine — over LocalFabric, where they run blocking, and
// over a streaming fabric, where they are started and answered. On a
// fabric without a launch stream a Submit's CE runs on whoever waits for
// it: its caller's Wait, or the dispatcher goroutine when it is only
// observed (Done). Everything runs on one worker, so from the second Launch
// of an array on its arguments are resident and the launch can stream.
func TestLaunchRunsOnItsCaller(t *testing.T) {
	const n = 16
	pin := func() policy.Policy {
		p, err := policy.NewVectorStep([]int{1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	local, ids := ppSystem(pin(), Options{})
	defer local.Close()
	stream, fab, sids := newStreamSystem(t, pin(), Options{})
	for _, sys := range []struct {
		name string
		ctl  *Controller
		ids  []dag.ArrayID
	}{{"local", local, ids}, {"stream", stream, sids}} {
		for i := 0; i < n; i++ {
			if _, err := sys.ctl.Launch(Invocation{Kernel: "relu",
				Args: []ArgRef{ArrRef(sys.ids[i%len(sys.ids)]), ScalarRef(float64(ppElems))}}); err != nil {
				t.Fatal(err)
			}
		}
		if got := sys.ctl.DispatcherJobs(); got != 0 {
			t.Fatalf("%s: the dispatcher goroutine was handed %d of %d Launches, want none", sys.name, got, n)
		}
	}
	fab.mu.Lock()
	starts := fab.starts
	fab.mu.Unlock()
	if starts == 0 {
		t.Fatal("stream: no Launch was started on a launch stream")
	}
	relu := Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(ids[0]), ScalarRef(float64(ppElems))}}
	p, err := local.Submit(relu)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := local.DispatcherJobs(); got != 0 {
		t.Fatalf("local: the dispatcher goroutine was handed %d CEs after a Submit its caller waited for, want none", got)
	}
	if p, err = local.Submit(relu); err != nil {
		t.Fatal(err)
	}
	<-p.Done()
	if got := local.DispatcherJobs(); got != 1 {
		t.Fatalf("local: the dispatcher goroutine was handed %d CEs after a Submit observed through Done, want 1", got)
	}
}

// TestPipelineCloseSemantics: Close drains, is idempotent, and further
// submissions fail cleanly.
func TestPipelineCloseSemantics(t *testing.T) {
	clu := cluster.New(cluster.PaperSpec(2))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{})
	arr, err := ctl.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ctl.Submit(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(ppElems))}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	default:
		t.Fatalf("Close returned before pending CE dispatched")
	}
	if err := ctl.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := ctl.Submit(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(ppElems))}}); err == nil {
		t.Fatalf("submit after close succeeded")
	}
}

// TestTraceRing pins the trace log as a ring: Traces returns the most
// recent traceRing entries in CE order, host ops included, and wrapping
// around leaves every total (makespan, bytes moved, scheduling overhead,
// CE count) covering the whole run.
func TestTraceRing(t *testing.T) {
	clu := cluster.New(cluster.PaperSpec(2))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{})
	arr, err := ctl.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	relu := Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(ppElems))}}
	launch := func(n int) (last sim.VirtualTime) {
		t.Helper()
		for i := 0; i < n; i++ {
			if last, err = ctl.Launch(relu); err != nil {
				t.Fatal(err)
			}
		}
		return last
	}

	launch(10)
	if _, err := ctl.HostRead(arr.ID); err != nil {
		t.Fatal(err)
	}
	tr := ctl.Traces()
	if len(tr) != 11 || tr[0].CE != 1 || tr[10].Label != "host-read" {
		t.Fatalf("before wrap-around: %d traces, first CE %d, last %q; want 11, 1, host-read",
			len(tr), tr[0].CE, tr[len(tr)-1].Label)
	}
	movedBefore := ctl.MovedBytes()
	if movedBefore == 0 {
		t.Fatal("round-robin relu stream moved nothing; the totals check below would be vacuous")
	}

	end := launch(traceRing + 500)
	total := dag.CEID(11 + traceRing + 500)
	tr = ctl.Traces()
	if len(tr) != traceRing {
		t.Fatalf("after wrap-around: %d traces, want the ring's %d", len(tr), traceRing)
	}
	for i, e := range tr {
		if want := total - dag.CEID(traceRing) + 1 + dag.CEID(i); e.CE != want {
			t.Fatalf("trace %d is CE %d, want %d (most recent entries, in order)", i, e.CE, want)
		}
	}
	if got := ctl.Elapsed(); got != end {
		t.Fatalf("Elapsed = %v, want the last CE's end %v", got, end)
	}
	if got := ctl.MovedBytes(); got <= movedBefore {
		t.Fatalf("MovedBytes = %v did not advance past %v across the wrap", got, movedBefore)
	}
	if ctl.MeanSchedulingOverhead() == 0 {
		t.Fatal("scheduling overhead lost")
	}
	if got := ctl.Graph().Size(); got != int(total) {
		t.Fatalf("Graph().Size() = %d, want %d CEs ever added", got, total)
	}
}
