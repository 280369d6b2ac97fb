package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

// On a fabric without a launch stream a Submit only queues its CE; whoever
// waits works through the run (pipeline.go). These tests pin the other
// half of that rule: a CE somebody only observes still resolves, a
// queued run leaves no work behind a Drain, and no CE of a run is worked
// through twice however many goroutines reach for it.

// rqElems is the length of every run-queue test array.
const rqElems = int64(256)

// rqSystem builds a numeric round-robin controller over two LocalFabric
// workers with k seeded arrays.
func rqSystem(t *testing.T, k int) (*Controller, []dag.ArrayID) {
	t.Helper()
	ctl := newNumericController(t, 2)
	ids := make([]dag.ArrayID, k)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, rqElems)
		if err != nil {
			t.Fatal(err)
		}
		seedArray(t, ctl, arr)
		ids[i] = arr.ID
	}
	return ctl, ids
}

// rqStep is the i-th CE of a chain over ids: axpy reads one array and
// writes the next, so every CE depends on the one before it, and round
// robin moves the data between the two workers.
func rqStep(ids []dag.ArrayID, i int) Invocation {
	return Invocation{Kernel: "axpy", Grid: 1, Block: int(rqElems), Args: []ArgRef{
		ArrRef(ids[(i+1)%len(ids)]), ArrRef(ids[i%len(ids)]),
		ScalarRef(0.5 + float64(i%3)), ScalarRef(float64(rqElems))}}
}

// resolvedWithin reports whether p resolves within d, observing it by
// nothing but polling its state.
func resolvedWithin(p *Pending, d time.Duration) bool {
	for deadline := time.Now().Add(d); !p.isResolved(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSubmitResolvesThroughDone: a Submit observed only through Done —
// no Wait, no Drain, no later Submit — resolves, on the dispatcher
// goroutine that Done woke.
func TestSubmitResolvesThroughDone(t *testing.T) {
	ctl, ids := rqSystem(t, 2)
	defer ctl.Close()
	p, err := ctl.Submit(rqStep(ids, 0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("a Submit observed through Done did not resolve within 10s")
	}
	if end, err := p.Wait(); err != nil || end == 0 {
		t.Fatalf("end=%v err=%v", end, err)
	}
	if got := ctl.DispatcherJobs(); got != 1 {
		t.Fatalf("the dispatcher goroutine worked through %d CEs, want 1", got)
	}
}

// TestSubmitResolvesThroughOnDone: the same through OnDone — the hook
// runs, and the CE resolves, with nobody waiting for it.
func TestSubmitResolvesThroughOnDone(t *testing.T) {
	ctl, ids := rqSystem(t, 2)
	defer ctl.Close()
	p, err := ctl.Submit(rqStep(ids, 0))
	if err != nil {
		t.Fatal(err)
	}
	hooked := make(chan error, 1)
	p.OnDone(func(_ sim.VirtualTime, err error) { hooked <- err })
	select {
	case err := <-hooked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a Submit observed through OnDone did not resolve within 10s")
	}
	if !resolvedWithin(p, 10*time.Second) {
		t.Fatal("the hook ran but the Pending never resolved")
	}
}

// TestRunQueueDrainMatchesLaunch: three run queues' worth of Submits
// followed by Drain are worked through on the submitting goroutine — the
// dispatcher goroutine is handed none — and leave every buffer
// bit-identical to the same chain run CE by CE with Launch.
func TestRunQueueDrainMatchesLaunch(t *testing.T) {
	const n = 3 * defaultPipelineDepth
	run := func(submit bool) (*Controller, [][]float64) {
		ctl, ids := rqSystem(t, 3)
		for i := 0; i < n; i++ {
			var err error
			if submit {
				_, err = ctl.Submit(rqStep(ids, i))
			} else {
				_, err = ctl.Launch(rqStep(ids, i))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := ctl.Drain(); err != nil {
			t.Fatal(err)
		}
		var out [][]float64
		for _, id := range ids {
			if _, err := ctl.HostRead(id); err != nil {
				t.Fatal(err)
			}
			out = append(out, snapshot(ctl.Array(id).Buf))
		}
		return ctl, out
	}
	launched, want := run(false)
	defer launched.Close()
	submitted, got := run(true)
	defer submitted.Close()
	if jobs := submitted.DispatcherJobs(); jobs != 0 {
		t.Fatalf("the dispatcher goroutine was handed %d of %d Submits nobody observed, want none", jobs, n)
	}
	for i := range want {
		sameValues(t, "array", got[i], want[i])
	}
	if g, w := submitted.Elapsed(), launched.Elapsed(); g != w {
		t.Fatalf("Submit run ends at %v, Launch run at %v", g, w)
	}
}

// countingFabric counts the launches that reach the fabric.
type countingFabric struct {
	*LocalFabric
	launches atomic.Int64
}

func (f *countingFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.launches.Add(1)
	return f.LocalFabric.Launch(w, inv, ready)
}

// TestRunQueueResolvesOnce: one goroutine Submits, a second Waits on its
// Pendings as they come, a third Drains, and some Pendings carry an OnDone
// hook that wakes the dispatcher goroutine — four goroutines reaching for
// one run queue. Every CE reaches the fabric once and every Pending
// resolves once with that CE's outcome: a recycled job is never worked
// through or answered twice.
func TestRunQueueResolvesOnce(t *testing.T) {
	const n = 5 * defaultPipelineDepth
	fab := &countingFabric{LocalFabric: numericFabric(2)}
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	defer ctl.Close()
	ids := make([]dag.ArrayID, 4)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, rqElems)
		if err != nil {
			t.Fatal(err)
		}
		seedArray(t, ctl, arr)
		ids[i] = arr.ID
	}
	hooks := make([]atomic.Int32, n)
	ends := make([]sim.VirtualTime, n)
	pendings := make(chan *Pending, n)
	stop := make(chan struct{})
	var work, drainer sync.WaitGroup
	work.Add(2)
	go func() { // submitter
		defer work.Done()
		defer close(pendings)
		for i := 0; i < n; i++ {
			p, err := ctl.Submit(rqStep(ids, i))
			if err != nil {
				t.Error(err)
				return
			}
			if i%5 == 0 {
				p.OnDone(func(_ sim.VirtualTime, err error) {
					if err == nil {
						hooks[i].Add(1)
					}
				})
			}
			pendings <- p
		}
	}()
	go func() { // waiter
		defer work.Done()
		i := 0
		for p := range pendings {
			end, err := p.Wait()
			if err != nil || end == 0 {
				t.Errorf("CE %d: end=%v err=%v", i, end, err)
			}
			ends[i] = end
			i++
		}
	}()
	drainer.Add(1)
	go func() {
		defer drainer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ctl.Drain(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	work.Wait()
	close(stop)
	drainer.Wait()
	if t.Failed() {
		return
	}
	if got := fab.launches.Load(); got != n {
		t.Fatalf("%d launches reached the fabric for %d CEs", got, n)
	}
	for i := 0; i < n; i += 5 {
		if got := hooks[i].Load(); got != 1 {
			t.Fatalf("CE %d: OnDone hook ran %d times, want once", i, got)
		}
	}
	for i := 1; i < n; i++ {
		if ends[i] <= ends[i-1] {
			t.Fatalf("CE %d ends at %v, not after CE %d (%v) it depends on", i, ends[i], i-1, ends[i-1])
		}
	}
}
