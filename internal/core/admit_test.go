package core

import (
	"sync"
	"testing"

	"grout/internal/cluster"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// Elementwise producer→consumer pair: wmul's store feeds wmadd's second
// parameter. Names avoid the stdlib registry ("scale" is taken by a native
// kernel).
const chainProdSrc = `__global__ void wmul(float *s, const float *x, float a, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { s[i] = a * x[i]; }
}`

const chainConsSrc = `__global__ void wmadd(float *o, const float *u, const float *v, float b, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { o[i] = u[i] + v[i] * b; }
}`

// newNumericController builds a numeric round-robin controller.
func newNumericController(t testing.TB, workers int) *Controller {
	t.Helper()
	return NewController(numericFabric(workers), policy.NewRoundRobin(), Options{Numeric: true})
}

// seedArray fills an array with deterministic values and versions it.
func seedArray(t testing.TB, ctl *Controller, arr *GlobalArray) {
	t.Helper()
	for i := 0; i < int(arr.Len); i++ {
		arr.Buf.Set(i, float64(i)*0.5-3)
	}
	if _, err := ctl.HostWrite(arr.ID); err != nil {
		t.Fatal(err)
	}
}

// runChain runs the wmul→wmadd chain through Submit+Drain or through
// Launch and returns the intermediate and output buffers.
func runChain(t testing.TB, ctl *Controller, submit bool) (s, o []float64) {
	t.Helper()
	const n = int64(64)
	for _, src := range []string{chainProdSrc, chainConsSrc} {
		if _, err := ctl.BuildKernel(src, ""); err != nil {
			t.Fatal(err)
		}
	}
	x, err := ctl.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	sArr, _ := ctl.NewArray(memmodel.Float32, n)
	oArr, _ := ctl.NewArray(memmodel.Float32, n)
	seedArray(t, ctl, x)

	prod := Invocation{Kernel: "wmul", Grid: 1, Block: int(n),
		Args: []ArgRef{ArrRef(sArr.ID), ArrRef(x.ID), ScalarRef(2.5), ScalarRef(float64(n))}}
	cons := Invocation{Kernel: "wmadd", Grid: 1, Block: int(n),
		Args: []ArgRef{ArrRef(oArr.ID), ArrRef(sArr.ID), ArrRef(x.ID), ScalarRef(0.75), ScalarRef(float64(n))}}
	if submit {
		p1, err := ctl.Submit(prod)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := ctl.Submit(cons)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Drain(); err != nil {
			t.Fatal(err)
		}
		if end, err := p1.Wait(); err != nil || end == 0 {
			t.Fatalf("producer pending: end=%v err=%v", end, err)
		}
		if end, err := p2.Wait(); err != nil || end == 0 {
			t.Fatalf("consumer pending: end=%v err=%v", end, err)
		}
	} else {
		if _, err := ctl.Launch(prod); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Launch(cons); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ctl.HostRead(sArr.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(oArr.ID); err != nil {
		t.Fatal(err)
	}
	return snapshot(sArr.Buf), snapshot(oArr.Buf)
}

// TestSubmitChainMatchesLaunch: a producer→consumer chain submitted
// without waiting gives the buffers, intermediate included, bit-identical
// to a controller launching it CE by CE.
func TestSubmitChainMatchesLaunch(t *testing.T) {
	plain := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	defer plain.Close()
	wantS, wantO := runChain(t, plain, false)

	ctl := newNumericController(t, 2)
	defer ctl.Close()
	gotS, gotO := runChain(t, ctl, true)

	sameValues(t, "s", gotS, wantS)
	sameValues(t, "o", gotO, wantO)
}

// TestLaunchChainBlocksLikeSerial: Launch works through its CE on its own
// goroutine and still behaves like the blocking call.
func TestLaunchChainBlocksLikeSerial(t *testing.T) {
	ctl := newNumericController(t, 2)
	defer ctl.Close()
	gotS, gotO := runChain(t, ctl, false)

	plain := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	defer plain.Close()
	wantS, wantO := runChain(t, plain, false)

	sameValues(t, "s", gotS, wantS)
	sameValues(t, "o", gotO, wantO)
	if ctl.Elapsed() == 0 {
		t.Fatalf("no virtual time elapsed")
	}
}

// TestDrainResolvesFewSubmits: a few submissions dispatch by Drain, never
// stall, and resolve every Pending.
func TestDrainResolvesFewSubmits(t *testing.T) {
	ctl := newNumericController(t, 2)
	defer ctl.Close()
	const n = int64(1 << 10)
	var pendings []*Pending
	for i := 0; i < 3; i++ {
		a, err := ctl.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ctl.Submit(Invocation{Kernel: "fill",
			Args: []ArgRef{ArrRef(a.ID), ScalarRef(float64(i)), ScalarRef(float64(n))}})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pendings {
		if end, err := p.Wait(); err != nil || end == 0 {
			t.Fatalf("pending %d: end=%v err=%v", i, end, err)
		}
	}
}

// TestSubmitStickyError: submissions have already returned when they
// dispatch, so a dispatch failure must surface on the Pendings, stick, and
// reject later submissions — the pipeline's sticky-error contract. The
// first launch waits at a gate until both Submits have returned, so the
// second is admitted before the failure exists.
func TestSubmitStickyError(t *testing.T) {
	chaos := NewChaosFabric(numericFabric(1), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{1: 1},
	})
	fab := &heldFabric{Fabric: chaos, KernelBuilder: chaos, kernel: "fill",
		arrived: make(chan struct{}, 2), gate: make(chan struct{})}
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	var open sync.Once
	release := func() { open.Do(func() { close(fab.gate) }) }
	defer func() { release(); _ = ctl.Close() }()
	const n = int64(256)
	a, err := ctl.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	var pendings []*Pending
	for i := 0; i < 2; i++ {
		p, err := ctl.Submit(Invocation{Kernel: "fill",
			Args: []ArgRef{ArrRef(a.ID), ScalarRef(1), ScalarRef(float64(n))}})
		if err != nil {
			t.Fatal(err)
		}
		pendings = append(pendings, p)
	}
	release()
	if err := ctl.Drain(); err == nil {
		t.Fatal("Drain succeeded over a killed worker")
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err == nil {
			t.Fatalf("pending %d resolved without error", i)
		}
	}
	// The error sticks: new work is rejected at admission.
	if _, err := ctl.Submit(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(a.ID), ScalarRef(1), ScalarRef(float64(n))}}); err == nil {
		t.Fatal("submission accepted after a sticky error")
	}
}
