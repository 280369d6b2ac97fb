package core

import (
	"fmt"
	"math/rand"
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
	clu := cluster.New(cluster.PaperSpec(4))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
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

// ppRun drives a stream and returns the trace with wall-clock overhead
// zeroed (the only field allowed to differ between serial and pipelined).
func ppRun(ctl *Controller, ids []dag.ArrayID, ops []ppOp) ([]CETrace, error) {
	for _, op := range ops {
		var err error
		switch {
		case op.hostRead != 0:
			_, err = ctl.HostRead(op.hostRead)
		case op.hostWr != 0:
			_, err = ctl.HostWrite(op.hostWr)
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

// TestPipelineMatchesSerial is the determinism property: for random CE
// streams, seeds, and all four policies, the pipelined controller yields
// bit-identical virtual-time traces and numerical outputs to the serial
// one. Run under -race this also exercises the pipeline's locking.
func TestPipelineMatchesSerial(t *testing.T) {
	polNames := ppPolicies()
	f := func(seed int64) bool {
		for name, mk := range polNames {
			serial, sIDs := ppSystem(mk(), Options{})
			piped, pIDs := ppSystem(mk(), Options{Pipeline: true, PipelineDepth: 8})
			ops := ppStream(seed, sIDs, 60)
			sTr, err := ppRun(serial, sIDs, ops)
			if err != nil {
				t.Logf("%s serial: %v", name, err)
				return false
			}
			pTr, err := ppRun(piped, pIDs, ops)
			if err != nil {
				t.Logf("%s pipelined: %v", name, err)
				return false
			}
			if len(sTr) != len(pTr) {
				t.Logf("%s: trace count %d vs %d", name, len(sTr), len(pTr))
				return false
			}
			for i := range sTr {
				if sTr[i] != pTr[i] {
					t.Logf("%s seed %d: trace %d differs:\nserial    %+v\npipelined %+v",
						name, seed, i, sTr[i], pTr[i])
					return false
				}
			}
			if serial.Elapsed() != piped.Elapsed() ||
				serial.MovedBytes() != piped.MovedBytes() ||
				serial.P2PMoves() != piped.P2PMoves() {
				t.Logf("%s: totals differ (%v/%v, %v/%v, %d/%d)", name,
					serial.Elapsed(), piped.Elapsed(),
					serial.MovedBytes(), piped.MovedBytes(),
					serial.P2PMoves(), piped.P2PMoves())
				return false
			}
			// Numerical outputs must agree bit for bit.
			for i := range sIDs {
				if _, err := serial.HostRead(sIDs[i]); err != nil {
					t.Logf("serial host read: %v", err)
					return false
				}
				if _, err := piped.HostRead(pIDs[i]); err != nil {
					t.Logf("pipelined host read: %v", err)
					return false
				}
				sb, pb := serial.Array(sIDs[i]).Buf, piped.Array(pIDs[i]).Buf
				for j := 0; j < ppElems; j++ {
					if sb.At(j) != pb.At(j) {
						t.Logf("%s seed %d: array %d elem %d: %v vs %v",
							name, seed, sIDs[i], j, sb.At(j), pb.At(j))
						return false
					}
				}
			}
			if err := piped.Close(); err != nil {
				t.Logf("%s close: %v", name, err)
				return false
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

// TestConcurrentFabricOrdering checks the unsequenced mode: with a fabric
// that allows concurrent dispatch, DAG dependencies alone enforce order —
// a read-write chain on one array launches strictly in submission order,
// while independent chains actually overlap across dispatchers.
func TestConcurrentFabricOrdering(t *testing.T) {
	fab := newConcFabric(4)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Pipeline: true})
	defer ctl.Close()

	arrs := make([]dag.ArrayID, 4)
	for i := range arrs {
		arr, err := ctl.NewArray(memmodel.Float32, ppElems)
		if err != nil {
			t.Fatal(err)
		}
		arrs[i] = arr.ID
	}
	// Interleave four independent relu chains, one per array.
	const rounds = 12
	for r := 0; r < rounds; r++ {
		for _, id := range arrs {
			if _, err := ctl.Submit(Invocation{Kernel: "relu",
				Args: []ArgRef{ArrRef(id), ScalarRef(float64(ppElems))}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}

	fab.mu.Lock()
	defer fab.mu.Unlock()
	if fab.launches != rounds*len(arrs) {
		t.Fatalf("launches = %d, want %d", fab.launches, rounds*len(arrs))
	}
	// Per-array launch order must be the submission order (the DAG chain).
	pos := map[dag.ArrayID]int{}
	for _, id := range fab.order {
		pos[id]++
	}
	for _, id := range arrs {
		if pos[id] != rounds {
			t.Fatalf("array %d launched %d times, want %d", id, pos[id], rounds)
		}
	}
	// A strict chain cannot reorder: within each array the recorded
	// sequence is trivially ordered (same dispatcher or ancestor waits);
	// verify cross-array overlap actually happened — otherwise the
	// "concurrent" mode silently serialized.
	if fab.maxSeen < 2 {
		t.Fatalf("no dispatch overlap observed (max in-flight %d)", fab.maxSeen)
	}
}

// chainFabric: same as concFabric but used single-array to assert strict
// ordering of a dependency chain under concurrent dispatch.
func TestConcurrentFabricChainOrder(t *testing.T) {
	fab := newConcFabric(4)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Pipeline: true})
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
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Pipeline: true, Failover: true})
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

// TestPipelineCloseSemantics: Close drains, is idempotent, and further
// submissions fail cleanly.
func TestPipelineCloseSemantics(t *testing.T) {
	clu := cluster.New(cluster.PaperSpec(2))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Pipeline: true})
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
