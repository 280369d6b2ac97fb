package core

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// Elementwise pair for the fusion pass: wmul is a producer whose store
// feeds wmadd's second parameter. Names avoid the stdlib registry
// ("scale" is taken by a native kernel).
const winProdSrc = `__global__ void wmul(float *s, const float *x, float a, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { s[i] = a * x[i]; }
}`

const winConsSrc = `__global__ void wmadd(float *o, const float *u, const float *v, float b, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { o[i] = u[i] + v[i] * b; }
}`

// newWindowSystem builds a numeric controller with the optimizer window.
func newWindowSystem(t testing.TB, workers, window int) *Controller {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(workers))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
	return NewController(fab, policy.NewRoundRobin(),
		Options{Numeric: true, OptimizeWindow: window})
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

// runChain submits the wmul→wmadd chain (fused or not, depending on the
// controller's window) and returns the intermediate and output buffers.
func runChain(t testing.TB, ctl *Controller, submit bool) (s, o []float64) {
	t.Helper()
	const n = int64(64)
	for _, src := range []string{winProdSrc, winConsSrc} {
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

// TestWindowFusionBitIdentical: the windowed controller fuses the
// elementwise chain into one CE and still produces bit-identical buffers
// — including the intermediate, which stays live (it is read back below,
// so the drop analysis must keep its store).
func TestWindowFusionBitIdentical(t *testing.T) {
	plain := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	defer plain.Close()
	wantS, wantO := runChain(t, plain, false)

	ctl := newWindowSystem(t, 2, 8)
	defer ctl.Close()
	gotS, gotO := runChain(t, ctl, true)

	sameValues(t, "s", gotS, wantS)
	sameValues(t, "o", gotO, wantO)
	if fused := ctl.OptStats().FusedCEs; fused != 1 {
		t.Fatalf("FusedCEs = %d, want 1 (producer absorbed)", fused)
	}
	if plain.OptStats().FusedCEs != 0 {
		t.Fatalf("window-off controller reported fusion work")
	}
}

// TestWindowSerialLaunch: Launch parks and flushes its window at once,
// works through it on its own goroutine and still behaves like the
// blocking call.
func TestWindowSerialLaunch(t *testing.T) {
	ctl := newWindowSystem(t, 2, 4)
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

// TestWindowPartialFlush: a window larger than the submission count must
// flush on Drain (and on HostRead), never stall, and resolve every
// Pending.
func TestWindowPartialFlush(t *testing.T) {
	ctl := newWindowSystem(t, 2, 32)
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
	if got := ctl.OptStats().FusedCEs; got != 0 {
		t.Fatalf("FusedCEs = %d for native (unfusable) kernels", got)
	}
}

// TestWindowCoalescingAndMoveElimination: with one worker the whole
// window is a single same-target run, so the two axpy CEs' three operand
// moves coalesce into one bulk frame at the leader's dispatch, and the
// second CE's shared operand — predicted and then confirmed resident —
// skips its per-argument fabric round trip entirely.
func TestWindowCoalescingAndMoveElimination(t *testing.T) {
	ctl := newWindowSystem(t, 1, 8)
	defer ctl.Close()
	const n = int64(1 << 20) // 4 MiB per array
	x, err := ctl.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	y1, _ := ctl.NewArray(memmodel.Float32, n)
	y2, _ := ctl.NewArray(memmodel.Float32, n)
	seedArray(t, ctl, x)

	for _, y := range []*GlobalArray{y1, y2} {
		if _, err := ctl.Submit(Invocation{Kernel: "axpy",
			Args: []ArgRef{ArrRef(y.ID), ArrRef(x.ID), ScalarRef(1), ScalarRef(float64(n))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}

	// y1, x and y2 ride one bulk frame; x never moves again.
	if got := ctl.MovedBytes(); got != 3*4*memmodel.MiB {
		t.Fatalf("moved = %v, want 12MiB (x shipped once, in bulk)", got)
	}
	st := ctl.OptStats()
	if st.CoalescedTransfers != 3 {
		t.Fatalf("CoalescedTransfers = %d, want 3", st.CoalescedTransfers)
	}
	if st.EliminatedMoves < 1 {
		t.Fatalf("EliminatedMoves = %d, want >= 1 (x was resident)", st.EliminatedMoves)
	}

	// The arithmetic survived the optimizations: y = 0 + 1*x.
	if _, err := ctl.HostRead(y1.ID); err != nil {
		t.Fatal(err)
	}
	sameValues(t, "y1", snapshot(y1.Buf), snapshot(x.Buf))
}

// TestWindowStickyError: in serial window mode parked submissions have
// already returned, so a dispatch failure must surface on the Pendings,
// poison the window, and reject later submissions — mirroring the
// pipeline's sticky-error contract.
func TestWindowStickyError(t *testing.T) {
	chaos := NewChaosFabric(numericFabric(1), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{1: 1},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(),
		Options{Numeric: true, OptimizeWindow: 4})
	defer ctl.Close()
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
	if err := ctl.Drain(); err == nil {
		t.Fatal("Drain succeeded over a killed worker")
	}
	for i, p := range pendings {
		if _, err := p.Wait(); err == nil {
			t.Fatalf("pending %d resolved without error", i)
		}
	}
	// The window is poisoned: new work is rejected at park time.
	if _, err := ctl.Submit(Invocation{Kernel: "fill",
		Args: []ArgRef{ArrRef(a.ID), ScalarRef(1), ScalarRef(float64(n))}}); err == nil {
		t.Fatal("submission accepted after sticky window error")
	}
}
