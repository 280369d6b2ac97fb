package core

// Tests for the dispatcher's streamed launches against an
// in-process fabric that keeps AsyncLauncher's contract honestly: a
// started launch reaches its worker only on FlushLaunches, a worker runs
// its launches in start order, and a broken channel fails everything
// queued behind the break. A dispatcher that waits without flushing hangs
// here instead of passing by luck.

import (
	"fmt"
	"sync"
	"testing"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

type queuedLaunch struct {
	inv  Invocation
	done func(sim.VirtualTime, error)
}

// streamQueue is one worker's channel: buffered launches wait for a
// flush, wired ones for the worker.
type streamQueue struct {
	buffered, wired []queuedLaunch
	running         bool
}

// streamFabric is a numeric LocalFabric behind a lock, declared safe for
// concurrent dispatch, with a per-worker launch stream.
type streamFabric struct {
	inner *LocalFabric

	mu   sync.Mutex // guards everything below and serializes inner
	cond *sync.Cond // a queue gained wired work, or stop
	q    map[cluster.NodeID]*streamQueue
	stop bool
	wg   sync.WaitGroup

	starts      int
	maxInFlight int
	// maxBusy is the most workers seen with a launch started and unanswered
	// at the same moment.
	maxBusy int
	// hold stops the workers from taking wired launches (set it under mu,
	// broadcast cond when clearing it); order logs the first array of every
	// started launch, in start order.
	hold  bool
	order []dag.ArrayID
	// breakAt[w] = n breaks w's channel when its n-th started launch
	// (1-based) reaches the worker: that launch and everything queued
	// behind it fail with a transient error, none of them having run, and
	// so does every later start until a blocking Launch re-establishes the
	// channel (broken), as TCPFabric's StartLaunch, which never redials.
	breakAt  map[cluster.NodeID]int
	broken   map[cluster.NodeID]bool
	started  map[cluster.NodeID]int
	blocking []dag.ArrayID // first array of every blocking Launch, in call order
}

func newStreamFabric(workers int) *streamFabric {
	f := &streamFabric{
		inner:   NewLocalFabric(cluster.New(cluster.PaperSpec(workers)), kernels.StdRegistry(), true),
		q:       make(map[cluster.NodeID]*streamQueue),
		breakAt: make(map[cluster.NodeID]int),
		broken:  make(map[cluster.NodeID]bool),
		started: make(map[cluster.NodeID]int),
	}
	f.cond = sync.NewCond(&f.mu)
	for _, w := range f.inner.Workers() {
		q := &streamQueue{}
		f.q[w] = q
		f.wg.Add(1)
		go f.serve(w, q)
	}
	return f
}

func (f *streamFabric) close() {
	f.mu.Lock()
	f.stop = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
}

// serve is worker w: it runs wired launches in order.
func (f *streamFabric) serve(w cluster.NodeID, q *streamQueue) {
	defer f.wg.Done()
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for (len(q.wired) == 0 || f.hold) && !f.stop {
			f.cond.Wait()
		}
		if f.stop {
			return
		}
		l := q.wired[0]
		q.wired = q.wired[1:]
		f.started[w]++
		if f.breakAt[w] == f.started[w] {
			failed := append([]queuedLaunch{l}, q.wired...)
			failed = append(failed, q.buffered...)
			q.wired, q.buffered = nil, nil
			delete(f.breakAt, w)
			f.broken[w] = true
			f.mu.Unlock()
			for _, x := range failed {
				x.done(0, fmt.Errorf("stream to worker %v broke: %w", w, ErrTransient))
			}
			f.mu.Lock()
			continue
		}
		q.running = true
		end, err := f.inner.Launch(w, l.inv, 0)
		q.running = false
		f.mu.Unlock()
		l.done(end, err)
		f.mu.Lock()
	}
}

func (f *streamFabric) ConcurrentDispatch() bool { return true }

func (f *streamFabric) StartLaunch(w cluster.NodeID, inv Invocation, _ sim.VirtualTime,
	done func(sim.VirtualTime, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	q, ok := f.q[w]
	if !ok {
		return fmt.Errorf("unknown worker %v", w)
	}
	if f.broken[w] {
		return fmt.Errorf("stream to worker %v is broken: %w", w, ErrTransient)
	}
	f.starts++
	for _, a := range inv.Args {
		if a.IsArray {
			f.order = append(f.order, a.Array)
			break
		}
	}
	q.buffered = append(q.buffered, queuedLaunch{inv, done})
	n := len(q.buffered) + len(q.wired)
	if q.running {
		n++
	}
	if n > f.maxInFlight {
		f.maxInFlight = n
	}
	busy := 0
	for _, wq := range f.q {
		if len(wq.buffered)+len(wq.wired) > 0 || wq.running {
			busy++
		}
	}
	if busy > f.maxBusy {
		f.maxBusy = busy
		f.cond.Broadcast() // a test may be waiting for it
	}
	return nil
}

func (f *streamFabric) FlushLaunches(w cluster.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	q := f.q[w]
	q.wired = append(q.wired, q.buffered...)
	q.buffered = nil
	f.cond.Broadcast()
}

func (f *streamFabric) Workers() []cluster.NodeID { return f.inner.Workers() }

func (f *streamFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.EnsureArray(w, meta)
}

func (f *streamFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID, srcReady sim.VirtualTime,
	srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.MoveArray(id, src, dst, srcReady, srcBuf, dstBuf)
}

func (f *streamFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	// The contract: the blocking Launch is called with nothing in flight.
	for ww, q := range f.q {
		if len(q.buffered)+len(q.wired) > 0 || q.running {
			return 0, fmt.Errorf("blocking launch with worker %v's stream busy", ww)
		}
	}
	for _, a := range inv.Args {
		if a.IsArray {
			f.blocking = append(f.blocking, a.Array)
			break
		}
	}
	delete(f.broken, w)
	return f.inner.Launch(w, inv, ready)
}

func (f *streamFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return f.inner.EstimateTransfer(src, dst, n)
}

func (f *streamFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inner.FreeArray(w, id)
}

func (f *streamFabric) Healthy(w cluster.NodeID) bool { return true }

var _ AsyncLauncher = (*streamFabric)(nil)

// readAll host-reads every array and returns the contents.
func readAll(t *testing.T, ctl *Controller, ids []dag.ArrayID) [][]float64 {
	t.Helper()
	out := make([][]float64, len(ids))
	for i, id := range ids {
		if _, err := ctl.HostRead(id); err != nil {
			t.Fatal(err)
		}
		buf := ctl.Array(id).Buf
		out[i] = make([]float64, buf.Len())
		for j := range out[i] {
			out[i][j] = buf.At(j)
		}
	}
	return out
}

// newStreamSystem is ppSystem over a streamFabric.
func newStreamSystem(t *testing.T, pol policy.Policy, opts Options) (*Controller, *streamFabric, []dag.ArrayID) {
	t.Helper()
	fab := newStreamFabric(4)
	ctl, ids := ppSystemOn(fab, pol, opts)
	t.Cleanup(func() {
		_ = ctl.Close()
		fab.close()
	})
	return ctl, fab, ids
}

// TestStreamedDispatchMatchesSerial: random programs through the streamed
// engine — worked through by the dispatcher goroutine and, while it is
// idle, started by the submitter itself, at a pipeline depth
// small enough that the depth wait and its flush run constantly — leave
// every array identical to the in-process controller's, never exceed the
// depth per worker, and never call the blocking Launch with a stream busy.
func TestStreamedDispatchMatchesSerial(t *testing.T) {
	const depth = 3
	starts := 0
	for seed := int64(1); seed <= 6; seed++ {
		for name, mk := range ppPolicies() {
			serial, sIDs := ppSystem(mk(), Options{})
			ops := ppStream(seed, sIDs, 80)
			if _, err := ppRun(serial, sIDs, ops, true); err != nil {
				t.Fatalf("%s seed %d serial: %v", name, seed, err)
			}
			ctl, fab, ids := newStreamSystem(t, mk(),
				Options{depth: depth})
			if _, err := ppRun(ctl, ids, ops, false); err != nil {
				t.Fatalf("%s seed %d streamed: %v", name, seed, err)
			}
			want, got := readAll(t, serial, sIDs), readAll(t, ctl, ids)
			for i := range want {
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s seed %d: array %d elem %d = %v, want %v",
							name, seed, i, j, got[i][j], want[i][j])
					}
				}
			}
			fab.mu.Lock()
			if fab.maxInFlight > depth {
				t.Fatalf("%s seed %d: %d launches in flight on one worker, depth %d",
					name, seed, fab.maxInFlight, depth)
			}
			starts += fab.starts
			fab.mu.Unlock()
		}
	}
	if starts == 0 {
		t.Fatal("nothing was streamed: the property held vacuously")
	}
}

// TestStreamedFailureReplaysInOrder breaks a worker's channel under a
// chain of order-sensitive launches: the broken launch and everything
// behind it must be redone through the blocking path in submission order,
// after everything in flight was answered, with the same result as an
// undisturbed serial run. The worker is held while the chain is
// submitted, so all of it is on the channel when the break comes.
func TestStreamedFailureReplaysInOrder(t *testing.T) {
	program := func(ctl *Controller, ids []dag.ArrayID, submitted func()) []*Pending {
		nArg := ScalarRef(float64(ppElems))
		// Make both arrays resident on one worker, committed.
		for _, id := range ids[:2] {
			if _, err := ctl.Launch(Invocation{Kernel: "relu", Args: []ArgRef{ArrRef(id), nArg}}); err != nil {
				t.Fatal(err)
			}
		}
		var pend []*Pending
		for i := 0; i < 20; i++ {
			a, b := ArrRef(ids[i%2]), ArrRef(ids[(i+1)%2])
			inv := Invocation{Kernel: "axpy", Args: []ArgRef{a, b, ScalarRef(0.5), nArg}}
			if i%3 == 1 {
				inv = Invocation{Kernel: "scale", Args: []ArgRef{a, b, ScalarRef(-0.75), nArg}}
			}
			p, err := ctl.Submit(inv)
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		submitted()
		if err := ctl.Drain(); err != nil {
			t.Fatal(err)
		}
		return pend
	}
	pin := func() policy.Policy {
		p, err := policy.NewVectorStep([]int{1 << 20}) // everything on the first worker
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	serial, sIDs := ppSystem(pin(), Options{})
	program(serial, sIDs, func() {})

	ctl, fab, ids := newStreamSystem(t, pin(), Options{
		Retry: RetryPolicy{Attempts: 1, Backoff: 1}})
	fab.mu.Lock()
	fab.breakAt[1] = 7 // the 7th streamed launch on worker 1, 13 more behind it
	fab.hold = true
	fab.mu.Unlock()
	pend := program(ctl, ids, func() {
		fab.mu.Lock()
		fab.hold = false
		fab.cond.Broadcast()
		fab.mu.Unlock()
	})
	for i, p := range pend {
		select {
		case <-p.Done():
			if _, err := p.Wait(); err != nil {
				t.Fatalf("launch %d: %v", i, err)
			}
		default:
			t.Fatalf("launch %d left unresolved", i)
		}
	}
	want, got := readAll(t, serial, sIDs[:2]), readAll(t, ctl, ids[:2])
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("array %d elem %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	fab.mu.Lock()
	defer fab.mu.Unlock()
	// 2 warm-up launches (their arrays are not resident yet) plus the 14
	// redone ones went through the blocking path; launch i of the program
	// leads with array i%2, so the redo order is visible in the log.
	if len(fab.blocking) != 2+14 {
		t.Fatalf("%d blocking launches, want 16: %v", len(fab.blocking), fab.blocking)
	}
	for k, id := range fab.blocking[2:] {
		if i := 6 + k; id != ids[i%2] {
			t.Fatalf("redo %d ran launch leading array %d, want launch %d (array %d)", k, id, i, ids[i%2])
		}
	}
	if ctl.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0", ctl.Failovers())
	}
}

// TestWrappersDoNotForwardAsyncLauncher: a wrapper that forwarded the
// interface without keeping its ordering contract would be silently
// wrong, so the one in this package must not (shard's are checked there).
func TestWrappersDoNotForwardAsyncLauncher(t *testing.T) {
	inner := newStreamFabric(2)
	defer inner.close()
	var wrapped Fabric = NewChaosFabric(inner, ChaosOptions{})
	if _, ok := wrapped.(AsyncLauncher); ok {
		t.Fatal("ChaosFabric forwards AsyncLauncher")
	}
	ctl := NewController(wrapped, policy.NewRoundRobin(), Options{Numeric: true})
	defer ctl.Close()
	arr, err := ctl.NewArray(memmodel.Float32, ppElems)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := ctl.Submit(Invocation{Kernel: "relu",
			Args: []ArgRef{ArrRef(arr.ID), ScalarRef(float64(ppElems))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if inner.starts != 0 || len(inner.blocking) != 12 {
		t.Fatalf("behind a wrapper: %d streamed, %d blocking launches, want 0 and 12",
			inner.starts, len(inner.blocking))
	}
}

// TestSharedRegistryConcurrentBuild: shard controllers share one kernel
// registry but not a lock; building the same source on all of them at once
// must succeed everywhere and register one definition.
func TestSharedRegistryConcurrentBuild(t *testing.T) {
	const src = `
extern "C" __global__ void twice(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = x[i] + x[i]; }
}`
	for round := 0; round < 20; round++ {
		reg := kernels.StdRegistry()
		const n = 8
		defs := make([]*kernels.Def, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			fab := NewLocalFabric(cluster.New(cluster.PaperSpec(1)), reg, false)
			ctl := NewController(fab, policy.NewRoundRobin(), Options{Registry: reg})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				defs[i], errs[i] = ctl.BuildKernel(src, "pointer float, sint32")
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range defs {
			if errs[i] != nil {
				t.Fatalf("round %d builder %d: %v", round, i, errs[i])
			}
			if defs[i] != defs[0] {
				t.Fatalf("round %d: builders %d and 0 got different definitions", round, i)
			}
		}
	}
}
