package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

func TestBestSourcePrefersP2POverController(t *testing.T) {
	ctl, _ := newSystem(t, 2, policy.NewRoundRobin(), false)
	const n = int64(1 << 26)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	// HostRead after a worker write leaves copies on worker1 AND the
	// controller; the next consumer on worker2 must pull P2P from
	// worker1, not from the controller (Algorithm 1's preference).
	if _, err := ctl.Launch(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	if !x.UpToDateOn(cluster.ControllerID) || !x.UpToDateOn(1) {
		t.Fatalf("setup: locations %v", x.Locations())
	}
	before := ctl.P2PMoves()
	if _, err := ctl.Launch(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if ctl.P2PMoves() != before+1 {
		t.Fatalf("consumer did not use P2P: %d -> %d", before, ctl.P2PMoves())
	}
}

// TestMinTransferTimeUsesInterconnectMatrix reproduces the §IV-D scenario
// the policy was designed for: heterogeneous links (VNIC SLAs). Data sits
// on two workers; a third runs the next CE. min-transfer-time must pick
// the source/destination combination behind the faster link.
func TestMinTransferTimeUsesInterconnectMatrix(t *testing.T) {
	spec := cluster.PaperSpec(3)
	// Worker1 -> worker3 is fast; worker2 -> worker3 is crippled;
	// links toward worker2 are also crippled so the data's home matters.
	spec.PairBW = map[[2]cluster.NodeID]float64{
		{1, 3}: 500e6,
		{2, 3}: 10e6,
		{1, 2}: 10e6,
		{3, 2}: 10e6,
		{2, 1}: 10e6,
		{3, 1}: 500e6,
	}
	clu := cluster.New(spec)
	fab := NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := NewController(fab, policy.NewMinTransferTime(policy.Low), Options{})

	const n = int64(1 << 26)
	a, _ := ctl.NewArray(memmodel.Float32, n) // will live on worker1
	b, _ := ctl.NewArray(memmodel.Float32, n) // will live on worker2
	// Place a on worker1 and b on worker2 via explicit vector-step runs.
	ctl.SetPolicy(mustVS(t, []int{1}))
	if _, err := ctl.Launch(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(a.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(b.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if !a.UpToDateOn(1) || !b.UpToDateOn(2) {
		t.Fatalf("setup: a on %v, b on %v", a.Locations(), b.Locations())
	}
	// A CE reading both: equal bytes everywhere, but pulling b over the
	// 10 MB/s links is far slower than pulling a over 500 MB/s — the
	// policy must choose worker2 (where b lives) or worker1? Transfer
	// times: to worker1: move b from w2 at 10MB/s (slow). To worker2:
	// move a from w1 at 10MB/s (slow). To worker3: a from w1 at 500MB/s +
	// b from w2 at 10MB/s (slow). Fastest total is worker1 vs worker2
	// tie... make it asymmetric: b is tiny, a is big.
	ctl.SetPolicy(policy.NewMinTransferTime(policy.Low))
	small, _ := ctl.NewArray(memmodel.Float32, 1024)
	if _, err := ctl.Launch(Invocation{Kernel: "copy",
		Args: []ArgRef{ArrRef(small.ID), ArrRef(a.ID), ScalarRef(1024)}}); err != nil {
		t.Fatal(err)
	}
	// copy reads a (big, on worker1): the cheapest node is worker1.
	tr := ctl.Traces()
	if got := tr[len(tr)-1].Node; got != 1 {
		t.Fatalf("min-transfer-time ignored the interconnect matrix: chose %v", got)
	}
}

func mustVS(t *testing.T, v []int) policy.Policy {
	t.Helper()
	p, err := policy.NewVectorStep(v)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestReadReplication(t *testing.T) {
	ctl, _ := newSystem(t, 3, policy.NewRoundRobin(), false)
	const n = int64(1 << 24)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	out1, _ := ctl.NewArray(memmodel.Float32, n)
	out2, _ := ctl.NewArray(memmodel.Float32, n)
	out3, _ := ctl.NewArray(memmodel.Float32, n)
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	// Three readers round-robin across three workers: x replicates.
	for _, out := range []*GlobalArray{ctl.Array(out1.ID), ctl.Array(out2.ID), ctl.Array(out3.ID)} {
		if _, err := ctl.Launch(Invocation{Kernel: "copy",
			Args: []ArgRef{ArrRef(out.ID), ArrRef(x.ID), ScalarRef(float64(n))}}); err != nil {
			t.Fatal(err)
		}
	}
	if !(x.UpToDateOn(1) && x.UpToDateOn(2) && x.UpToDateOn(3)) {
		t.Fatalf("x not replicated to all readers: %v", x.Locations())
	}
	// A writer invalidates every replica but its own node.
	if _, err := ctl.Launch(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if len(x.Locations()) != 1 {
		t.Fatalf("write left stale replicas: %v", x.Locations())
	}
}

func TestTraceAccounting(t *testing.T) {
	ctl, _ := newSystem(t, 2, policy.NewRoundRobin(), false)
	const n = int64(1 << 26) // 256 MiB
	x, _ := ctl.NewArray(memmodel.Float32, n)
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	var kernelTrace *CETrace
	for i := range ctl.Traces() {
		if ctl.Traces()[i].Label == "relu" {
			kernelTrace = &ctl.Traces()[i]
		}
	}
	if kernelTrace == nil {
		t.Fatalf("kernel trace missing")
	}
	if kernelTrace.MovedBytes != 256*memmodel.MiB {
		t.Fatalf("trace moved = %v, want 256MiB", kernelTrace.MovedBytes)
	}
	if kernelTrace.P2PMoves != 0 {
		t.Fatalf("trace p2p = %d, want 0", kernelTrace.P2PMoves)
	}
}

func TestFabricErrorPaths(t *testing.T) {
	_, fab := newSystem(t, 1, policy.NewRoundRobin(), false)
	if err := fab.EnsureArray(9, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: 4}); err == nil {
		t.Fatalf("EnsureArray on unknown worker succeeded")
	}
	if _, err := fab.MoveArray(1, 9, 1, 0, nil, nil); err == nil {
		t.Fatalf("MoveArray from unknown worker succeeded")
	}
	if _, err := fab.MoveArray(1, cluster.ControllerID, 9, 0, nil, nil); err == nil {
		t.Fatalf("MoveArray to unknown worker succeeded")
	}
	if _, err := fab.Launch(9, Invocation{Kernel: "relu"}, 0); err == nil {
		t.Fatalf("Launch on unknown worker succeeded")
	}
	if err := fab.FreeArray(9, 1); err == nil {
		t.Fatalf("FreeArray on unknown worker succeeded")
	}
	// Moving an array that was never ensured at the destination fails.
	if _, err := fab.MoveArray(42, cluster.ControllerID, 1, 0, nil, nil); err == nil {
		t.Fatalf("MoveArray of unknown array succeeded")
	}
	if err := fab.FreeArray(1, 42); err != nil {
		t.Fatalf("FreeArray of absent array should be a no-op: %v", err)
	}
	if fab.WorkerStats(9) != nil {
		t.Fatalf("stats of unknown worker non-nil")
	}
}

func TestBuildKernelThroughController(t *testing.T) {
	ctl, fab := newSystem(t, 2, policy.NewRoundRobin(), true)
	src := `
extern "C" __global__ void triple(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = 3.0 * x[i]; }
}`
	def, err := ctl.BuildKernel(src, "pointer float, sint32")
	if err != nil {
		t.Fatal(err)
	}
	if def.Name != "triple" {
		t.Fatalf("def name = %q", def.Name)
	}
	// Compiling the same source again is idempotent.
	if _, err := ctl.BuildKernel(src, "pointer float, sint32"); err != nil {
		t.Fatalf("re-build failed: %v", err)
	}
	// The kernel executes on workers.
	x, _ := ctl.NewArray(memmodel.Float32, 8)
	for i := 0; i < 8; i++ {
		x.Buf.Set(i, float64(i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(Invocation{Kernel: "triple", Grid: 1, Block: 8,
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(8)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if x.Buf.At(i) != 3*float64(i) {
			t.Fatalf("x[%d] = %v", i, x.Buf.At(i))
		}
	}
	// Garbage source fails cleanly.
	if _, err := ctl.BuildKernel("garbage(", ""); err == nil {
		t.Fatalf("garbage source accepted")
	}
	_ = fab
}

func TestWriteChromeTrace(t *testing.T) {
	ctl, _ := newSystem(t, 2, policy.NewRoundRobin(), false)
	const n = int64(1 << 20)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	if _, err := ctl.Launch(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(x.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ctl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var complete, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	// fill + host-read CEs, plus process names for worker1 & controller.
	if complete != 2 || meta < 2 {
		t.Fatalf("trace events: %d complete, %d meta", complete, meta)
	}
}

// Property: arbitrary CE streams leave the data-location registry
// consistent — every array has at least one valid location, traces are
// well-formed, and the simulated cluster's page accounting holds.
func TestControllerRegistryInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pols := []policy.Policy{
			policy.NewRoundRobin(),
			policy.NewMinTransferSize(policy.Low),
			policy.NewMinTransferTime(policy.High),
			policy.NewUVMAware(policy.Medium, 48*memmodel.GiB),
		}
		ctl, fab := newSystem(t, 3, pols[rng.Intn(len(pols))], false)
		var ids []dag.ArrayID
		for i := 0; i < 5; i++ {
			arr, err := ctl.NewArray(memmodel.Float32, int64(rng.Intn(1<<22)+1))
			if err != nil {
				return false
			}
			ids = append(ids, arr.ID)
		}
		for op := 0; op < 40; op++ {
			id := ids[rng.Intn(len(ids))]
			n := float64(1024)
			var err error
			switch rng.Intn(5) {
			case 0:
				_, err = ctl.Launch(Invocation{Kernel: "fill",
					Args: []ArgRef{ArrRef(id), ScalarRef(1), ScalarRef(n)}})
			case 1:
				_, err = ctl.Launch(Invocation{Kernel: "relu",
					Args: []ArgRef{ArrRef(id), ScalarRef(n)}})
			case 2:
				other := ids[rng.Intn(len(ids))]
				if other == id {
					continue
				}
				_, err = ctl.Launch(Invocation{Kernel: "axpy",
					Args: []ArgRef{ArrRef(id), ArrRef(other), ScalarRef(2), ScalarRef(n)}})
			case 3:
				_, err = ctl.HostRead(id)
			case 4:
				_, err = ctl.HostWrite(id)
			}
			if err != nil {
				t.Logf("op %d failed: %v", op, err)
				return false
			}
		}
		// Registry invariants.
		for _, id := range ids {
			arr := ctl.Array(id)
			if len(arr.Locations()) == 0 {
				t.Logf("array %d has no valid location", id)
				return false
			}
		}
		// Trace invariants.
		for _, tr := range ctl.Traces() {
			if tr.End < tr.Start {
				return false
			}
		}
		// Simulated page accounting on every worker.
		for _, w := range fab.Workers() {
			if err := fab.Runtime(w).Node().CheckInvariants(); err != nil {
				t.Logf("worker %v: %v", w, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestGanttAndDescribe(t *testing.T) {
	ctl, _ := newSystem(t, 2, policy.NewRoundRobin(), false)
	const n = int64(1 << 24)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	y, _ := ctl.NewArray(memmodel.Float32, n)
	for _, id := range []dag.ArrayID{x.ID, y.ID} {
		if _, err := ctl.Launch(Invocation{Kernel: "fill",
			Args: []ArgRef{ArrRef(id), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
			t.Fatal(err)
		}
	}
	var g bytes.Buffer
	if err := ctl.WriteGantt(&g, 60); err != nil {
		t.Fatal(err)
	}
	out := g.String()
	for _, want := range []string{"worker1", "worker2", "legend:", "fill#"} {
		if !strings.Contains(out, want) {
			t.Fatalf("gantt missing %q:\n%s", want, out)
		}
	}
	var d bytes.Buffer
	ctl.Describe(&d)
	for _, want := range []string{"2 CEs scheduled", "round-robin", "arrays (2)", "valid on"} {
		if !strings.Contains(d.String(), want) {
			t.Fatalf("describe missing %q:\n%s", want, d.String())
		}
	}
	// Empty controller edge case.
	empty, _ := newSystem(t, 1, policy.NewRoundRobin(), false)
	var e bytes.Buffer
	if err := empty.WriteGantt(&e, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "no CEs") {
		t.Fatalf("empty gantt output: %q", e.String())
	}
}

// A Pending makes its channel only for a waiter that finds it unresolved:
// Wait, Done and OnDone from several goroutines racing resolve all see the
// outcome, and a Pending resolved before anyone asks answers without one.
func TestPendingLazyChannel(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := new(Pending)
		var wg sync.WaitGroup
		var hooked atomic.Int32
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				switch g % 3 {
				case 0:
					if end, err := p.Wait(); end != 9 || err != nil {
						t.Errorf("Wait = %v, %v", end, err)
					}
				case 1:
					<-p.Done()
					if end, _ := p.Wait(); end != 9 {
						t.Errorf("Wait after Done = %v", end)
					}
				default:
					p.OnDone(func(end sim.VirtualTime, _ error) {
						if end == 9 {
							hooked.Add(1)
						}
					})
				}
			}(g)
		}
		p.resolve(9, nil)
		wg.Wait()
		if hooked.Load() != 1 {
			t.Fatalf("round %d: hook ran %d times", round, hooked.Load())
		}
	}
	done := new(Pending)
	done.resolve(3, nil)
	if end, err := done.Wait(); end != 3 || err != nil {
		t.Fatalf("Wait on a resolved Pending = %v, %v", end, err)
	}
	<-done.Done()
	if done.done != nil {
		t.Fatal("a Pending resolved before anyone waited made a channel")
	}
}

// A Pending runs each OnDone hook exactly once with the outcome — on the
// resolver before Wait returns, or at once when registered afterwards.
func TestPendingOnDone(t *testing.T) {
	p := &Pending{done: make(chan struct{})}
	var got []sim.VirtualTime
	p.OnDone(func(end sim.VirtualTime, err error) {
		if err != nil {
			t.Errorf("hook saw error %v", err)
		}
		got = append(got, end)
	})
	go p.resolve(7, nil)
	if end, err := p.Wait(); end != 7 || err != nil {
		t.Fatalf("Wait = %v, %v", end, err)
	}
	// The hook ran before Wait was released.
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("hooks before Wait returned: %v", got)
	}
	p.OnDone(func(end sim.VirtualTime, _ error) { got = append(got, end+1) })
	if len(got) != 2 || got[1] != 8 {
		t.Fatalf("late hook did not run at once: %v", got)
	}
}
