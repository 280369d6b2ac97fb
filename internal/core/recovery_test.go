package core

// Chaos-fabric scenario tests for lineage recovery, deadline/retry, and
// the failover accessors' concurrency (ISSUE 4). Every scenario runs a
// deterministic fault schedule against a numeric LocalFabric and checks
// results bit-for-bit against a fault-free run of the same workload.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

const recElems = 64

// chainWorkload submits fill(x,5) → relu×3(x) → fill(y,3) → axpy(y,x,2):
// with round-robin over two workers, x's committed version after the relu
// chain lives ONLY on worker 2, and the axpy lands there as its third
// launch. Returns the final x and y contents via HostRead.
func chainWorkload(t *testing.T, ctl *Controller) ([]float64, []float64) {
	t.Helper()
	x, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	n := ScalarRef(float64(recElems))
	launch := func(inv Invocation) {
		t.Helper()
		if _, err := ctl.Submit(inv); err != nil {
			t.Fatal(err)
		}
	}
	launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(x.ID), ScalarRef(5), n}})
	for i := 0; i < 3; i++ {
		launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(x.ID), n}})
	}
	launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(y.ID), ScalarRef(3), n}})
	launch(Invocation{Kernel: "axpy", Args: []ArgRef{ArrRef(y.ID), ArrRef(x.ID), ScalarRef(2), n}})
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(y.ID); err != nil {
		t.Fatal(err)
	}
	return snapshot(x.Buf), snapshot(y.Buf)
}

func snapshot(b *kernels.Buffer) []float64 {
	out := make([]float64, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

func sameValues(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %v, want %v (recovered run diverged)", name, i, got[i], want[i])
		}
	}
}

func numericFabric(workers int) *LocalFabric {
	return NewLocalFabric(cluster.New(cluster.PaperSpec(workers)), kernels.StdRegistry(), true)
}

// TestChaosKillLineageRecovery kills the sole holder of an intermediate
// (non-root) array version mid-run: worker 2 dies at its third launch,
// taking the only copy of x (produced there by the relu chain) with it.
// Lineage recovery must replay fill→relu×3 on the survivor and the run
// must finish bit-identical to the fault-free baseline, with zero
// ErrDataLost surfaced.
func TestChaosKillLineageRecovery(t *testing.T) {
	cleanCtl := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	cleanX, cleanY := chainWorkload(t, cleanCtl)
	cleanCtl.Close()

	victim := cluster.NodeID(2)
	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{victim: 3},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{Numeric: true, Failover: true})
	defer ctl.Close()
	gotX, gotY := chainWorkload(t, ctl)

	sameValues(t, "x", gotX, cleanX)
	sameValues(t, "y", gotY, cleanY)
	if ctl.Failovers() < 1 {
		t.Fatalf("failovers = %d, want >= 1", ctl.Failovers())
	}
	if ctl.Recoveries() < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (lineage replay should have run)", ctl.Recoveries())
	}
	if chaos.Injected() != 1 {
		t.Fatalf("injected faults = %d, want 1", chaos.Injected())
	}
	dead := ctl.DeadWorkers()
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead workers = %v, want [%v]", dead, victim)
	}
}

// TestChaosKillRecoveryPipelined is the same scenario through the
// pipelined dispatch path, with a goroutine hammering the failover
// accessors while the failure unfolds — the -race companion for both the
// recovery machinery and the Failovers()/DeadWorkers() locking fix.
func TestChaosKillRecoveryPipelined(t *testing.T) {
	cleanCtl := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	cleanX, cleanY := chainWorkload(t, cleanCtl)
	cleanCtl.Close()

	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{2: 3},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{Numeric: true, Failover: true})
	defer ctl.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Poll the failover accessors concurrently with markDead and the
		// recovery bookkeeping; the race detector owns the assertion.
		for {
			select {
			case <-stop:
				return
			default:
				_ = ctl.Failovers()
				_ = ctl.DeadWorkers()
				_ = ctl.Recoveries()
				_ = ctl.RecoveryTime()
			}
		}
	}()
	gotX, gotY := chainWorkload(t, ctl)
	close(stop)
	wg.Wait()

	sameValues(t, "x", gotX, cleanX)
	sameValues(t, "y", gotY, cleanY)
	if ctl.Failovers() < 1 || ctl.Recoveries() < 1 {
		t.Fatalf("failovers = %d recoveries = %d, want both >= 1",
			ctl.Failovers(), ctl.Recoveries())
	}
}

// TestChaosUnrecoverableRoot: when the lineage closure bottoms out in a
// host-written version the controller no longer holds, recovery must give
// up with ErrDataLost — and the rest of the cluster must stay usable.
func TestChaosUnrecoverableRoot(t *testing.T) {
	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{1: 2},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{Numeric: true, Failover: true})
	defer ctl.Close()

	x, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	z, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	n := ScalarRef(float64(recElems))
	for i := 0; i < recElems; i++ {
		x.Buf.Set(i, float64(-i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	// y is derived from x's first host version on worker 1. A second
	// host write then overwrites the controller's buffer: y's lineage
	// root x@1 is now neither live anywhere nor host-held.
	if _, err := ctl.Launch(Invocation{Kernel: "axpy",
		Args: []ArgRef{ArrRef(y.ID), ArrRef(x.ID), ScalarRef(1), n}}); err != nil {
		t.Fatal(err)
	}
	x.Buf.Fill(1)
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(z.ID), ScalarRef(3), n}}); err != nil {
		t.Fatal(err)
	}
	// Worker 1's second launch kills it; the write-only fill reroutes.
	if _, err := ctl.Launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(z.ID), ScalarRef(9), n}}); err != nil {
		t.Fatalf("write-only fill should survive the kill via reroute: %v", err)
	}
	// A reader of y cannot: its sole copy died with worker 1, and the
	// replay bottoms out in the superseded host root.
	_, err = ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(y.ID), n}})
	if !errors.Is(err, ErrDataLost) {
		t.Fatalf("unrecoverable loss reported as %v, want ErrDataLost", err)
	}
	// The surviving worker's data is intact and readable.
	if _, err := ctl.HostRead(z.ID); err != nil {
		t.Fatal(err)
	}
	if z.Buf.At(0) != 9 {
		t.Fatalf("z[0] = %v, want 9", z.Buf.At(0))
	}
}

// TestChaosHostRootRecovered: a chain rooted in a host write is
// replayable as long as the controller's buffer still holds that
// version — the recovery plan re-ships it instead of bottoming out.
func TestChaosHostRootRecovered(t *testing.T) {
	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		KillAtLaunch: map[cluster.NodeID]int{1: 2},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{Numeric: true, Failover: true})
	defer ctl.Close()

	x, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	y, err := ctl.NewArray(memmodel.Float32, recElems)
	if err != nil {
		t.Fatal(err)
	}
	n := ScalarRef(float64(recElems))
	for i := 0; i < recElems; i++ {
		x.Buf.Set(i, float64(i%5)-2)
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	// relu mutates x in place on worker 1: the committed version's only
	// lineage input is the host write, whose bytes the controller still
	// holds.
	if _, err := ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(x.ID), n}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(y.ID), ScalarRef(3), n}}); err != nil {
		t.Fatal(err)
	}
	// Worker 1's second launch kills it, taking x's only copy along.
	if _, err := ctl.Launch(Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(y.ID), ScalarRef(9), n}}); err != nil {
		t.Fatalf("write-only fill should survive the kill via reroute: %v", err)
	}
	// The reader triggers recovery: re-ship the host root, replay the
	// relu on the survivor, then run.
	if _, err := ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(x.ID), n}}); err != nil {
		t.Fatalf("host-rooted chain should recover: %v", err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recElems; i++ {
		want := float64(i%5) - 2
		if want < 0 {
			want = 0
		}
		if x.Buf.At(i) != want {
			t.Fatalf("x[%d] = %v, want %v", i, x.Buf.At(i), want)
		}
	}
}

// TestChaosHungWorkerWrittenOffWithinBudget: a worker that accepts calls
// but never answers must cost at most the deadline+retry budget, not hang
// the run. The chaos fabric models each call to the hung worker as eating
// the RPC deadline and returning ErrTimeout.
func TestChaosHungWorkerWrittenOffWithinBudget(t *testing.T) {
	const deadline = 15 * time.Millisecond
	victim := cluster.NodeID(2)
	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		HangAtLaunch: map[cluster.NodeID]int{victim: 1},
		CallDeadline: deadline,
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{
		Numeric:  true,
		Failover: true,
		Retry:    RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
	})
	defer ctl.Close()

	start := time.Now()
	cleanX, cleanY := chainWorkload(t, ctl)
	elapsed := time.Since(start)

	// Budget: 2 retries + first attempt eat one deadline each, the probe
	// one more, plus backoff — anything near a second means we hung.
	if budget := 100 * deadline; elapsed > budget {
		t.Fatalf("hung-worker run took %v, budget %v", elapsed, budget)
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	dead := ctl.DeadWorkers()
	if len(dead) != 1 || dead[0] != victim {
		t.Fatalf("dead workers = %v, want [%v]", dead, victim)
	}
	// And the values must match a clean run on fresh state.
	cleanCtl := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	defer cleanCtl.Close()
	wantX, wantY := chainWorkload(t, cleanCtl)
	sameValues(t, "x", cleanX, wantX)
	sameValues(t, "y", cleanY, wantY)
}

// TestChaosTransientSeverRetried: a transfer severed mid-chunk is
// transient — the controller's retry/backoff must absorb it without
// writing any worker off.
func TestChaosTransientSeverRetried(t *testing.T) {
	chaos := NewChaosFabric(numericFabric(2), ChaosOptions{
		SeverMoves: []int{1},
	})
	ctl := NewController(chaos, policy.NewRoundRobin(), Options{
		Numeric:  true,
		Failover: true,
		Retry:    RetryPolicy{Attempts: 2, Backoff: time.Millisecond},
	})
	defer ctl.Close()
	gotX, gotY := chainWorkload(t, ctl)

	cleanCtl := NewController(numericFabric(2), policy.NewRoundRobin(), Options{Numeric: true})
	defer cleanCtl.Close()
	wantX, wantY := chainWorkload(t, cleanCtl)

	sameValues(t, "x", gotX, wantX)
	sameValues(t, "y", gotY, wantY)
	if ctl.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0 (sever is transient)", ctl.Failovers())
	}
	if chaos.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", chaos.Injected())
	}
	if len(ctl.DeadWorkers()) != 0 {
		t.Fatalf("dead workers = %v, want none", ctl.DeadWorkers())
	}
}

// TestRetryPolicyDelay pins the backoff curve: exponential from Backoff,
// capped at MaxBackoff, jitter only subtracts.
func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{Attempts: 5, Backoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40, 40}
	for i, w := range want {
		if d := p.delay(i+1, nil); d != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
	d := RetryPolicy{}.delay(1, nil)
	if d <= 0 {
		t.Fatalf("zero-value policy delay = %v, want positive default", d)
	}
}
