package transport

// Tests for the pipelined control channel and the controller's streamed
// launches over it (DESIGN.md §5.11): equivalence with the blocking path
// and the serial in-process run, failure replay with launches in flight,
// the ring's read deadline, and write coalescing on both ends.

import (
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

const streamElems = 256

// startWorkers spins up n loopback workers.
func startWorkers(t *testing.T, n int) ([]*WorkerServer, []string) {
	t.Helper()
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	return workers, addrs
}

// blockingOnly shows the controller a TCP fabric without AsyncLauncher:
// the one other optional the controller reads (KernelBuilder) answers as
// TCPFabric does, so the controller takes exactly the blocking path.
type blockingOnly struct {
	core.Fabric
	core.KernelBuilder
}

func hideStream(f *TCPFabric) core.Fabric { return blockingOnly{f, f} }

// countedStream forwards everything and counts the launches that were
// streamed, so an equivalence test can tell it exercised the stream.
type countedStream struct {
	*TCPFabric
	starts atomic.Int64
}

func (c *countedStream) StartLaunch(w cluster.NodeID, inv core.Invocation, ready sim.VirtualTime,
	done func(sim.VirtualTime, error)) error {
	c.starts.Add(1)
	return c.TCPFabric.StartLaunch(w, inv, ready, done)
}

// firstAlive places every CE on the first live worker: the whole stream
// lands on worker 1 until it is written off.
type firstAlive struct{}

func (firstAlive) Name() string                             { return "first-alive" }
func (firstAlive) NeedsDataView() bool                      { return false }
func (firstAlive) Assign(req policy.Request) cluster.NodeID { return req.Nodes[0].ID }

// outstanding reports how many control requests await their answer.
func (c *rpcConn) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring) - c.head
}

// waitOutstanding polls until worker w's stream link has at least n
// unanswered requests.
func waitOutstanding(t *testing.T, fab *TCPFabric, w cluster.NodeID, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		fab.lmu.RLock()
		got := fab.stream[w].ctrl.outstanding()
		fab.lmu.RUnlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %v: %d requests in flight, want >= %d", w, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// streamOp is one step of a generated program.
type streamOp struct {
	inv      core.Invocation
	hostRead int // 1-based array index; 0 = none
	hostWr   int
}

// genStream draws a random program over nArr arrays: full overwrites,
// in-place updates, two-array kernels (sometimes aliased), and the odd
// host read or write as a synchronization point.
func genStream(seed int64, nArr, n int) []streamOp {
	rng := rand.New(rand.NewSource(seed))
	pick := func() core.ArgRef { return core.ArrRef(dag.ArrayID(1 + rng.Intn(nArr))) }
	nArg := core.ScalarRef(streamElems)
	ops := make([]streamOp, 0, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(24); {
		case r == 0:
			ops = append(ops, streamOp{hostRead: 1 + rng.Intn(nArr)})
		case r == 1:
			ops = append(ops, streamOp{hostWr: 1 + rng.Intn(nArr)})
		case r < 5:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "fill",
				Args: []core.ArgRef{pick(), core.ScalarRef(float64(rng.Intn(9)) - 4), nArg}}})
		case r < 11:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "relu",
				Args: []core.ArgRef{pick(), nArg}}})
		case r < 16:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "copy",
				Args: []core.ArgRef{pick(), pick(), nArg}}})
		default:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "axpy",
				Args: []core.ArgRef{pick(), pick(), core.ScalarRef(0.5), nArg}}})
		}
	}
	return ops
}

// runStream allocates nArr arrays on ctl (IDs 1..nArr on a fresh
// controller, which is what genStream's references assume), runs ops and
// returns every array's final contents.
func runStream(ctl *core.Controller, nArr int, ops []streamOp) ([][]float64, error) {
	for i := 0; i < nArr; i++ {
		arr, err := ctl.NewArray(memmodel.Float32, streamElems)
		if err != nil {
			return nil, err
		}
		for j := 0; j < streamElems; j++ {
			arr.Buf.Set(j, float64(i+1)*float64(j%17)-8)
		}
		if _, err := ctl.HostWrite(arr.ID); err != nil {
			return nil, err
		}
	}
	for _, op := range ops {
		var err error
		switch {
		case op.hostRead != 0:
			_, err = ctl.HostRead(dag.ArrayID(op.hostRead))
		case op.hostWr != 0:
			_, err = ctl.HostWrite(dag.ArrayID(op.hostWr))
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
	return readArrays(ctl, nArr)
}

func readArrays(ctl *core.Controller, nArr int) ([][]float64, error) {
	out := make([][]float64, nArr)
	for i := range out {
		id := dag.ArrayID(i + 1)
		if _, err := ctl.HostRead(id); err != nil {
			return nil, err
		}
		buf := ctl.Array(id).Buf
		out[i] = make([]float64, buf.Len())
		for j := range out[i] {
			out[i][j] = buf.At(j)
		}
	}
	return out, nil
}

func sameArrays(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: array %d elem %d = %v, want %v", what, i+1, j, got[i][j], want[i][j])
			}
		}
	}
}

func streamPolicies() map[string]func() policy.Policy {
	return map[string]func() policy.Policy{
		"round-robin":       func() policy.Policy { return policy.NewRoundRobin() },
		"min-transfer-size": func() policy.Policy { return policy.NewMinTransferSize(policy.Medium) },
		"min-transfer-time": func() policy.Policy { return policy.NewMinTransferTime(policy.Medium) },
	}
}

// TestStreamedMatchesSerialAndBlocking is the stream's equivalence
// property over real sockets: for random programs, seeds and policies, the
// streamed controller leaves every array bit-identical to the serial
// in-process run, and moves exactly the bytes the blocking TCP path moves
// (the same fabric with AsyncLauncher hidden — the parent's behaviour).
// Round-robin forces worker→worker moves; its bytes and P2P counts per seed
// are pinned to the values measured when every push dialed its own
// connection and cloned the array: how a push travels may change, what is
// moved may not. A last program runs past the pipeline depth: a chain of
// launches longer than the 64 one worker may have unanswered, all on one
// stalled worker, so a submitter starts its launch only under the bound and
// the CEs past it go to the dispatcher (core's
// TestInlineStartHandsRemainderInOrder pins the hand-over itself).
func TestStreamedMatchesSerialAndBlocking(t *testing.T) {
	const nArr, nOps, workers = 5, 90, 3
	type moves struct {
		bytes memmodel.Bytes
		p2p   int
	}
	roundRobin := map[int64]moves{1: {69632, 53}, 2: {73728, 57}, 3: {80896, 63}, 4: {79872, 61}}
	var streamed int64
	for seed := int64(1); seed <= 4; seed++ {
		ops := genStream(seed, nArr, nOps)
		for name, mk := range streamPolicies() {
			local := core.NewController(
				core.NewLocalFabric(cluster.New(cluster.PaperSpec(workers)), kernels.StdRegistry(), true),
				mk(), core.Options{Numeric: true})
			want, err := runStream(local, nArr, ops)
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", name, seed, err)
			}

			tcpRun := func(wrap func(*TCPFabric) core.Fabric) ([][]float64, memmodel.Bytes, int) {
				_, addrs := startWorkers(t, workers)
				fab, err := Dial(addrs)
				if err != nil {
					t.Fatal(err)
				}
				defer fab.Close()
				ctl := core.NewController(wrap(fab), mk(), core.Options{Numeric: true})
				defer ctl.Close()
				got, err := runStream(ctl, nArr, ops)
				if err != nil {
					t.Fatalf("%s seed %d tcp: %v", name, seed, err)
				}
				return got, ctl.MovedBytes(), ctl.P2PMoves()
			}
			blocking, bMoved, bP2P := tcpRun(hideStream)
			sameArrays(t, name+" blocking tcp vs serial", blocking, want)
			var cs *countedStream
			stream, sMoved, sP2P := tcpRun(func(f *TCPFabric) core.Fabric {
				cs = &countedStream{TCPFabric: f}
				return cs
			})
			streamed += cs.starts.Load()

			sameArrays(t, name+" streamed tcp vs serial", stream, want)
			if sMoved != bMoved || sP2P != bP2P {
				t.Fatalf("%s seed %d: streamed moved %d B / %d p2p, blocking %d B / %d p2p",
					name, seed, sMoved, sP2P, bMoved, bP2P)
			}
			if pin := roundRobin[seed]; name == "round-robin" && (sMoved != pin.bytes || sP2P != pin.p2p) {
				t.Fatalf("round-robin seed %d moved %d B / %d p2p, pinned %d B / %d p2p",
					seed, sMoved, sP2P, pin.bytes, pin.p2p)
			}
		}
	}
	if streamed == 0 {
		t.Fatal("no launch was streamed: the property held vacuously")
	}

	// Past the depth bound: worker 1 stalls while the whole chain is
	// submitted, so the first 64 launches fill its stream and the rest
	// queue for the dispatcher goroutine. The chain must still match the
	// serial run bit for bit.
	const chainArr, chain = 4, 96
	launches := orderedLaunches(chainArr, chain)
	ref := core.NewController(
		core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true),
		firstAlive{}, core.Options{Numeric: true})
	t.Cleanup(func() { _ = ref.Close() })
	residentArrays(t, ref, chainArr)
	for _, inv := range launches {
		if _, err := ref.Submit(inv); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readArrays(ref, chainArr)
	if err != nil {
		t.Fatal(err)
	}
	ws, addrs := startWorkers(t, 2)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl, _, release := stalledProgram(t, fab, ws, core.Options{}, chainArr, launches, 1)
	release()
	got, err := readArrays(ctl, chainArr)
	if err != nil {
		t.Fatal(err)
	}
	sameArrays(t, "chain past the depth bound vs serial", got, want)
	if n := ctl.DispatcherJobs(); n == 0 {
		t.Fatalf("none of %d launches on a stalled worker went to the dispatcher: the depth bound was never hit", chain)
	}
}

// residentArrays allocates nArr host-initialized arrays and runs one relu
// on each: on a TCP fleet that first launch ships the array to worker 1
// (blocking path), so everything after finds it resident and streams.
func residentArrays(t *testing.T, ctl *core.Controller, nArr int) {
	t.Helper()
	for i := 0; i < nArr; i++ {
		arr, err := ctl.NewArray(memmodel.Float32, streamElems)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < streamElems; j++ {
			arr.Buf.Set(j, float64(i+2)*float64(j%13)-9)
		}
		if _, err := ctl.HostWrite(arr.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(arr.ID), core.ScalarRef(streamElems)}}); err != nil {
			t.Fatal(err)
		}
	}
}

// stalledProgram sets up the failure tests: a controller over two workers
// placing everything on worker 1, nArr arrays made resident there, worker
// 1 then stalled (its runtime lock held, so requests queue unanswered) and
// the given launches submitted into the stream. It returns
// once at least minInFlight of them are in flight.
func stalledProgram(t *testing.T, fab *TCPFabric, workers []*WorkerServer, opts core.Options,
	nArr int, launches []core.Invocation, minInFlight int) (*core.Controller, []*core.Pending, func()) {
	t.Helper()
	opts.Numeric = true
	ctl := core.NewController(fab, firstAlive{}, opts)
	t.Cleanup(func() { _ = ctl.Close() })
	residentArrays(t, ctl, nArr)
	workers[0].mu.Lock()
	release := func() { workers[0].mu.Unlock() }
	var pend []*core.Pending
	for _, inv := range launches {
		p, err := ctl.Submit(inv)
		if err != nil {
			release()
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	waitOutstanding(t, fab, 1, minInFlight)
	return ctl, pend, release
}

// orderedLaunches is a program whose result depends on the order its
// launches run in (scale and axpy do not commute).
func orderedLaunches(nArr, n int) []core.Invocation {
	nArg := core.ScalarRef(streamElems)
	out := make([]core.Invocation, n)
	for i := range out {
		a := core.ArrRef(dag.ArrayID(1 + i%nArr))
		b := core.ArrRef(dag.ArrayID(1 + (i+1)%nArr))
		switch i % 3 {
		case 0:
			out[i] = core.Invocation{Kernel: "axpy", Args: []core.ArgRef{a, b, core.ScalarRef(0.5), nArg}}
		case 1:
			out[i] = core.Invocation{Kernel: "scale", Args: []core.ArgRef{a, b, core.ScalarRef(-0.75), nArg}}
		default:
			out[i] = core.Invocation{Kernel: "relu", Args: []core.ArgRef{a, nArg}}
		}
	}
	return out
}

// allResolved fails the test if any Pending is still open.
func allResolved(t *testing.T, pend []*core.Pending) {
	t.Helper()
	for i, p := range pend {
		select {
		case <-p.Done():
		default:
			t.Fatalf("launch %d left unresolved", i)
		}
	}
}

// TestStreamKillWorkerMidFlight kills worker 1 with a window of launches
// in flight on its stream. With Failover the controller must write the
// worker off, replay the lost arrays from lineage on worker 2 and redo the
// failed launches in submission order: the result is bit-identical to the
// same program on a healthy in-process fleet, and every Pending resolves.
func TestStreamKillWorkerMidFlight(t *testing.T) {
	const nArr, nLaunch = 4, 24
	launches := orderedLaunches(nArr, nLaunch)

	// Reference: the same program, serial, in process.
	ref := core.NewController(
		core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true),
		firstAlive{}, core.Options{Numeric: true})
	residentArrays(t, ref, nArr)
	for _, inv := range launches {
		if _, err := ref.Launch(inv); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readArrays(ref, nArr)
	if err != nil {
		t.Fatal(err)
	}

	workers, addrs := startWorkers(t, 2)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl, pend, release := stalledProgram(t, fab, workers, core.Options{Failover: true},
		nArr, launches, 16)

	// Kill worker 1 while it is stalled: listener and every connection go,
	// with the stream's launches unanswered. (The test holds the runtime
	// lock, so it may read the connection set; Close proper runs after.)
	_ = workers[0].listener.Close()
	for c := range workers[0].active {
		_ = c.Close()
	}
	release()
	_ = workers[0].Close()

	if err := ctl.Drain(); err != nil {
		t.Fatalf("drain after kill: %v", err)
	}
	allResolved(t, pend)
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	got, err := readArrays(ctl, nArr)
	if err != nil {
		t.Fatal(err)
	}
	sameArrays(t, "after kill vs healthy serial run", got, want)
}

// TestStreamSeverControlLinkRedials severs worker 1's control connection
// with launches in flight while retries are on: the failed launches are
// redone through the blocking path, which redials, and nobody is written
// off. (The program is idempotent relu chains: the worker may still run
// the severed stream's queued launches — at-least-once, as a retried
// blocking launch always was.)
func TestStreamSeverControlLinkRedials(t *testing.T) {
	const nArr, nLaunch = 3, 20
	launches := make([]core.Invocation, nLaunch)
	for i := range launches {
		launches[i] = core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(dag.ArrayID(1 + i%nArr)), core.ScalarRef(streamElems)}}
	}
	workers, addrs := startWorkers(t, 2)
	fab, err := DialWith(addrs, DialOptions{Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	opts := core.Options{Failover: true,
		Retry: core.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}}
	ctl, pend, release := stalledProgram(t, fab, workers, opts, nArr, launches, 16)

	fab.lmu.RLock()
	old := fab.links[1]
	fab.lmu.RUnlock()
	_ = old.ctrl.fc.raw.Close()
	release()

	if err := ctl.Drain(); err != nil {
		t.Fatalf("drain after sever: %v", err)
	}
	allResolved(t, pend)
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if ctl.Failovers() != 0 {
		t.Fatalf("failovers = %d, want 0 (the link was redialed)", ctl.Failovers())
	}
	fab.lmu.RLock()
	redialed := fab.links[1] != old && fab.stream[1] == fab.links[1]
	fab.lmu.RUnlock()
	if !redialed {
		t.Fatal("worker 1 was not redialed onto a fresh stream link")
	}
	got, err := readArrays(ctl, nArr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		for j, v := range got[i] {
			want := float64(i+2)*float64(j%13) - 9
			if want < 0 {
				want = 0
			}
			if v != want {
				t.Fatalf("array %d elem %d = %v, want %v", i+1, j, v, want)
			}
		}
	}
}

// TestStreamHungWorkerTimesOutRing: a worker that accepted the stream's
// requests and never answers fails every launch in flight, in order, with
// core.ErrTimeout within one Timeout — and an idle channel, however
// long it idles past the timeout, never fails.
func TestStreamHungWorkerTimesOutRing(t *testing.T) {
	const timeout = 100 * time.Millisecond
	workers, addrs := startWorkers(t, 1)
	fab, err := DialWith(addrs, DialOptions{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: streamElems}); err != nil {
		t.Fatal(err)
	}

	// Idle for several timeouts: no deadline is armed on an empty ring.
	time.Sleep(3 * timeout)
	if _, err := fab.Stats(1); err != nil {
		t.Fatalf("idle channel failed: %v", err)
	}

	const k = 8
	type outcome struct {
		seq int
		err error
	}
	results := make(chan outcome, k)
	workers[0].mu.Lock() // the worker reads requests and answers none
	start := time.Now()
	for i := 0; i < k; i++ {
		i := i
		if err := fab.StartLaunch(1, core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(1), core.ScalarRef(streamElems)}}, 0,
			func(_ sim.VirtualTime, err error) { results <- outcome{i, err} }); err != nil {
			workers[0].mu.Unlock()
			t.Fatal(err)
		}
	}
	fab.FlushLaunches(1)
	for i := 0; i < k; i++ {
		select {
		case r := <-results:
			if r.seq != i {
				t.Errorf("answer %d is launch %d: ring order broken", i, r.seq)
			}
			if !errors.Is(r.err, core.ErrTimeout) {
				t.Errorf("launch %d: %v, want core.ErrTimeout", r.seq, r.err)
			}
		case <-time.After(10 * timeout):
			workers[0].mu.Unlock()
			t.Fatalf("launch %d still unanswered %v after the flush", i, time.Since(start))
		}
	}
	workers[0].mu.Unlock()
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("ring failed after %v, before the %v deadline", elapsed, timeout)
	}
	// The channel is dead: a later start fails at once.
	if err := fab.StartLaunch(1, core.Invocation{Kernel: "relu"}, 0,
		func(sim.VirtualTime, error) {}); err == nil {
		t.Fatal("start on a timed-out channel accepted")
	}
}

// countingWriter counts the writes that reach a connection.
type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.w.Write(p)
}

func countWrites(fc *framedConn) *countingWriter {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	cw := &countingWriter{w: fc.w}
	fc.w = cw
	return cw
}

// TestControlChannelCoalescesWrites: K pipelined requests cost fewer than
// K writes on both ends (one, on loopback), and K blocking calls cost
// exactly K on both — buffering never delays a request nobody is behind.
func TestControlChannelCoalescesWrites(t *testing.T) {
	const k = 32
	workers, addrs := startWorkers(t, 1)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: streamElems}); err != nil {
		t.Fatal(err)
	}
	client := countWrites(fab.links[1].ctrl.fc)
	// Only the control connection of the two the worker tracks sees
	// traffic here, so the sum over both is its count.
	var server []*countingWriter
	workers[0].mu.Lock()
	for c := range workers[0].active {
		server = append(server, countWrites(c.(*framedConn)))
	}
	workers[0].mu.Unlock()
	serverWrites := func() int64 {
		var n int64
		for _, cw := range server {
			n += cw.n.Load()
		}
		return n
	}
	relu := core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{core.ArrRef(1), core.ScalarRef(streamElems)}}

	// Depth 1: one write per request, one per response.
	for i := 0; i < k; i++ {
		if _, err := fab.Launch(1, relu, 0); err != nil {
			t.Fatal(err)
		}
	}
	if c, s := client.n.Load(), serverWrites(); c != k || s != k {
		t.Fatalf("depth 1: %d client and %d worker writes for %d calls, want %d each", c, s, k, k)
	}

	// Depth K: the worker is stalled while the burst goes out, so every
	// request is waiting in its read buffer when it starts answering.
	var wg sync.WaitGroup
	wg.Add(k)
	var failed atomic.Int64
	workers[0].mu.Lock()
	for i := 0; i < k; i++ {
		if err := fab.StartLaunch(1, relu, 0, func(_ sim.VirtualTime, err error) {
			if err != nil {
				failed.Add(1)
			}
			wg.Done()
		}); err != nil {
			workers[0].mu.Unlock()
			t.Fatal(err)
		}
	}
	fab.FlushLaunches(1)
	time.Sleep(20 * time.Millisecond) // let the burst land before the worker resumes
	workers[0].mu.Unlock()
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d of %d pipelined launches failed", failed.Load(), k)
	}
	if c, s := client.n.Load()-k, serverWrites()-k; c >= k || s >= k || c < 1 || s < 1 {
		t.Fatalf("depth %d: %d client and %d worker writes, want fewer than %d each", k, c, s, k)
	}
}
