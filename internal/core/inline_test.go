package core

// Tests for the two hand-offs a depth-1 step no longer takes in this
// package (DESIGN.md §5.5, §5.11): a session's Elapsed synchronizes that
// session only, and the goroutine that admits a CE starts its launch
// itself while the dispatcher is idle — and only then.

import (
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

// heldFabric is a LocalFabric (no ConcurrentDispatcher behind the embedded
// interfaces, so no launch stream) whose launches of one kernel wait for the
// gate.
type heldFabric struct {
	Fabric
	KernelBuilder
	kernel  string
	arrived chan struct{} // one send per held launch, as it arrives
	gate    chan struct{}
}

func (f *heldFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	if inv.Kernel == f.kernel {
		f.arrived <- struct{}{}
		<-f.gate
	}
	return f.Fabric.Launch(w, inv, ready)
}

// returnsWithin reports whether fn returns within d.
func returnsWithin(d time.Duration, fn func()) bool {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// settleDispatcher launches relu on id, which must be resident on its
// worker, until a launch is started by its submitter. A blocking launch
// resolves a moment before the dispatcher lets go of its job, so the launch right behind one may still be handed to it; once one is not,
// the dispatcher is idle and stays so until it is handed something.
func settleDispatcher(t *testing.T, ctl *Controller, id dag.ArrayID) {
	t.Helper()
	for i := 0; i < 100; i++ {
		before := ctl.DispatcherJobs()
		if _, err := ctl.Launch(Invocation{Kernel: "relu",
			Args: []ArgRef{ArrRef(id), ScalarRef(float64(ppElems))}}); err != nil {
			t.Fatal(err)
		}
		if ctl.DispatcherJobs() == before {
			return
		}
	}
	t.Fatal("the dispatcher never went idle")
}

// TestSessionScopedSync: a session's Elapsed returns while another
// session's CE is stuck in the fabric — Controller.Elapsed, which it used
// to be, does not — yet waits for every CE of its own, here three queued
// behind the stuck CE.
func TestSessionScopedSync(t *testing.T) {
	const n = 64
	local := NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true)
	fab := &heldFabric{
		Fabric: local, KernelBuilder: local,
		kernel:  "fill",
		arrived: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	var open sync.Once
	release := func() { open.Do(func() { close(fab.gate) }) }
	t.Cleanup(func() { release(); _ = ctl.Close() })
	for _, src := range []string{chainProdSrc, chainConsSrc} {
		if _, err := ctl.BuildKernel(src, ""); err != nil {
			t.Fatal(err)
		}
	}
	a := NewControllerSession(ctl, "a", SessionLimits{})
	b := NewControllerSession(ctl, "b", SessionLimits{})
	alloc := func(s *ControllerSession) dag.ArrayID {
		t.Helper()
		id, err := s.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		buf := kernels.NewBuffer(memmodel.Float32, n)
		for i := 0; i < n; i++ {
			buf.Set(i, float64(i%7)-3)
		}
		if _, err := s.HostWrite(id, buf); err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit := func(s *ControllerSession, inv Invocation) {
		t.Helper()
		if _, err := s.Submit(inv); err != nil {
			t.Fatal(err)
		}
	}
	ax, as, ao, bx := alloc(a), alloc(a), alloc(a), alloc(b)
	nArg := ScalarRef(n)

	submit(a, Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(ax), nArg}})
	a.Elapsed()
	submit(b, Invocation{Kernel: "fill", Args: []ArgRef{ArrRef(bx), ScalarRef(1), nArg}})
	<-fab.arrived // b's CE is in the fabric, and stays there

	if !returnsWithin(5*time.Second, func() { a.Elapsed() }) {
		t.Fatal("session a's Elapsed waits for session b's CE")
	}
	if b.Inflight() != 1 {
		t.Fatal("session b's CE got past the gate")
	}

	// a's own: a producer→consumer pair and a third CE, all queued behind
	// b's stuck CE (one FIFO) when Elapsed is called.
	submit(a, Invocation{Kernel: "wmul", Grid: 1, Block: n,
		Args: []ArgRef{ArrRef(as), ArrRef(ax), ScalarRef(2.5), nArg}})
	submit(a, Invocation{Kernel: "wmadd", Grid: 1, Block: n,
		Args: []ArgRef{ArrRef(ao), ArrRef(as), ArrRef(ax), ScalarRef(0.75), nArg}})
	submit(a, Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(ao), nArg}})
	synced := make(chan struct{})
	go func() { a.Elapsed(); close(synced) }()
	select {
	case <-synced:
		t.Fatal("session a's Elapsed returned with its own CEs behind a stuck one")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("session a's Elapsed never returned")
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Inflight != 0 || st.Completed != 4 {
		t.Fatalf("after Elapsed: %d in flight, %d of 4 completed (want 0, 4)",
			st.Inflight, st.Completed)
	}
}

// TestInlineStartDepthOne: with the dispatcher idle, the goroutine that
// admits a CE starts its launch itself — two sessions' depth-1
// Submit+Elapsed steps over a streaming fabric never reach the dispatcher
// — and on a fabric without a launch stream Submits nobody observes wait
// in the run queue for the Drain that works through them.
func TestInlineStartDepthOne(t *testing.T) {
	const steps = 200
	pin := func() policy.Policy {
		p, err := policy.NewVectorStep([]int{1 << 20}) // everything on the first worker
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ctl, fab, ids := newStreamSystem(t, pin(), Options{})
	nArg := ScalarRef(float64(ppElems))
	for _, id := range ids[:2] { // resident on the worker, by the blocking path
		if _, err := ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(id), nArg}}); err != nil {
			t.Fatal(err)
		}
	}
	settleDispatcher(t, ctl, ids[0])
	before := ctl.DispatcherJobs()
	fab.mu.Lock()
	streamedBefore := fab.starts
	fab.mu.Unlock()
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := NewControllerSession(ctl, "t", SessionLimits{})
			s.arrays[1] = ctl.Array(ids[k]) // adopt a resident array
			for i := 0; i < steps; i++ {
				if _, err := s.Submit(Invocation{Kernel: "scale",
					Args: []ArgRef{ArrRef(1), ArrRef(1), ScalarRef(-1), nArg}}); err != nil {
					t.Error(err)
					return
				}
				s.Elapsed()
			}
			if st := s.Stats(); st.Completed != steps {
				t.Errorf("session %d completed %d of %d", k, st.Completed, steps)
			}
		}(k)
	}
	wg.Wait()
	if got := ctl.DispatcherJobs() - before; got != 0 {
		t.Fatalf("the dispatcher was handed %d of %d depth-1 launches, want 0", got, 2*steps)
	}
	fab.mu.Lock()
	streamed := fab.starts - streamedBefore
	fab.mu.Unlock()
	if streamed != 2*steps {
		t.Fatalf("%d launches streamed, want %d", streamed, 2*steps)
	}

	seq := newNumericController(t, 2)
	defer seq.Close()
	arr, err := seq.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := seq.Submit(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(arr.ID), nArg}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seq.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := seq.DispatcherJobs(); got != 0 {
		t.Fatalf("no launch stream: dispatcher handled %d of 10 launches, want none (Drain works through the run)", got)
	}
}

// TestInlineStartHandsRemainderInOrder: a submitter starts its CE itself
// only while the worker is under the depth bound; the first CE past it is
// handed to the dispatcher, and while the dispatcher holds that CE a later
// one queues behind it instead of overtaking it.
func TestInlineStartHandsRemainderInOrder(t *testing.T) {
	// The depth bounds both a worker's started launches and the FIFO,
	// so chain-depth+1 must fit in the FIFO or a Submit blocks on the held
	// worker.
	const depth, chain = 2, 3
	pin, err := policy.NewVectorStep([]int{1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctl, fab, ids := newStreamSystem(t, pin, Options{depth: depth})
	nArg := ScalarRef(float64(ppElems))
	for _, id := range ids[:2] {
		if _, err := ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(id), nArg}}); err != nil {
			t.Fatal(err)
		}
	}
	setHold := func(h bool) {
		fab.mu.Lock()
		fab.hold = h
		fab.starts, fab.order = 0, nil
		fab.cond.Broadcast()
		fab.mu.Unlock()
	}
	started := func() int {
		fab.mu.Lock()
		defer fab.mu.Unlock()
		return fab.starts
	}
	settleDispatcher(t, ctl, ids[1])
	setHold(true)
	defer setHold(false) // a failed check must not leave Close draining a held worker
	before := ctl.DispatcherJobs()
	var pend []*Pending
	for i := 0; i < chain; i++ {
		p, err := ctl.Submit(Invocation{Kernel: "scale",
			Args: []ArgRef{ArrRef(ids[0]), ArrRef(ids[0]), ScalarRef(-1.5), nArg}})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	// The submitters started up to the depth bound.
	if n := started(); n != depth {
		t.Fatalf("%d launches started by their submitters, want the depth bound %d", n, depth)
	}
	p, err := ctl.Submit(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(ids[1]), nArg}})
	if err != nil {
		t.Fatal(err)
	}
	pend = append(pend, p)
	time.Sleep(20 * time.Millisecond) // an overtaking start would have happened by now
	if n := started(); n != depth {
		t.Fatalf("%d launches started with the worker held at depth %d: a later CE overtook the dispatcher's", n, depth)
	}
	fab.mu.Lock()
	fab.hold = false
	fab.cond.Broadcast()
	fab.mu.Unlock()
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	fab.mu.Lock()
	order := append([]dag.ArrayID(nil), fab.order...)
	fab.mu.Unlock()
	if len(order) != chain+1 || order[chain] != ids[1] {
		t.Fatalf("start order %v: want %d launches on array %d, then the later CE's on array %d",
			order, chain, ids[0], ids[1])
	}
	if got := ctl.DispatcherJobs() - before; got != chain-depth+1 {
		t.Fatalf("dispatcher handed %d jobs, want the %d past the bound and the later CE", got, chain-depth)
	}
}

// A session's Elapsed reads the fleet clock under mu alone, while another
// session's HostWrite and HostRead advance it under subMu: the host ops
// must take mu for the clock too, or -race reports it.
func TestSessionElapsedBesideHostOps(t *testing.T) {
	fab := NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	t.Cleanup(func() { _ = ctl.Close() })
	a := NewControllerSession(ctl, "a", SessionLimits{})
	b := NewControllerSession(ctl, "b", SessionLimits{})
	const n = 8
	id, err := a.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	buf := kernels.NewBuffer(memmodel.Float32, n)
	relu := Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(id), ScalarRef(n)}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Each launch advances the clock, so the write and the read
		// behind it both move c.elapsed.
		for i := 0; i < 200; i++ {
			if _, err := a.HostWrite(id, buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := a.Submit(relu); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := a.HostRead(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			b.Elapsed()
		}
	}
}
