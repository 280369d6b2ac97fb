package transport

import (
	"errors"
	"math"
	"net"
	"strings"
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/workloads"
)

// startCluster spins up n worker servers on loopback and a controller
// connected to them over real TCP.
func startCluster(t *testing.T, n int) (*core.Controller, *TCPFabric, []*WorkerServer) {
	t.Helper()
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true})
	return ctl, fab, workers
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial(nil); err == nil {
		t.Fatalf("empty address list accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}); err == nil {
		t.Fatalf("dead address accepted")
	}
}

func TestEndToEndAxpyOverTCP(t *testing.T) {
	ctl, _, _ := startCluster(t, 2)
	const n = int64(256)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	y, _ := ctl.NewArray(memmodel.Float32, n)
	for i := 0; i < int(n); i++ {
		x.Buf.Set(i, float64(i))
		y.Buf.Set(i, 1)
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostWrite(y.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(core.Invocation{Kernel: "axpy",
		Args: []core.ArgRef{core.ArrRef(y.ID), core.ArrRef(x.ID),
			core.ScalarRef(2), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(y.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if want := 1 + 2*float64(i); y.Buf.At(i) != want {
			t.Fatalf("y[%d] = %v, want %v", i, y.Buf.At(i), want)
		}
	}
}

func TestBuildKernelDistributedOverTCP(t *testing.T) {
	ctl, _, workers := startCluster(t, 2)
	src := `
extern "C" __global__ void cube(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = x[i] * x[i] * x[i]; }
}`
	if _, err := ctl.BuildKernel(src, "pointer float, sint32"); err != nil {
		t.Fatal(err)
	}
	// Every worker must know the kernel now.
	for i, w := range workers {
		if _, ok := w.Runtime().Registry().Lookup("cube"); !ok {
			t.Fatalf("worker %d missing compiled kernel", i)
		}
	}
	x, _ := ctl.NewArray(memmodel.Float32, 16)
	for i := 0; i < 16; i++ {
		x.Buf.Set(i, float64(i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(core.Invocation{Kernel: "cube", Grid: 1, Block: 16,
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(16)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if want := math.Pow(float64(i), 3); x.Buf.At(i) != want {
			t.Fatalf("x[%d] = %v, want %v", i, x.Buf.At(i), want)
		}
	}
}

func TestP2PPushOverTCP(t *testing.T) {
	ctl, _, workers := startCluster(t, 2)
	const n = int64(64)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	// fill runs on worker 1 (round-robin); relu must run on worker 2 and
	// pull the data peer-to-peer over a real socket.
	if _, err := ctl.Launch(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(-3), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if x.Buf.At(i) != 0 { // relu(-3) = 0
			t.Fatalf("x[%d] = %v, want 0", i, x.Buf.At(i))
		}
	}
	if ctl.P2PMoves() != 1 {
		t.Fatalf("p2p moves = %d, want 1", ctl.P2PMoves())
	}
	// The data physically reached worker 2. Read it under the worker's
	// lock: the socket reply orders the write before this read, but the
	// race detector cannot see that.
	workers[1].mu.Lock()
	arr := workers[1].Runtime().Array(x.ID)
	ok := arr != nil && arr.Buf.At(0) == 0
	workers[1].mu.Unlock()
	if !ok {
		t.Fatalf("worker 2 replica wrong")
	}
}

func TestWorkerStats(t *testing.T) {
	ctl, fab, _ := startCluster(t, 1)
	x, _ := ctl.NewArray(memmodel.Float32, 32)
	if _, err := ctl.Launch(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(1), core.ScalarRef(32)}}); err != nil {
		t.Fatal(err)
	}
	st, err := fab.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernels != 1 || st.Arrays != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := fab.Stats(9); err == nil {
		t.Fatalf("stats of unknown worker accepted")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	ctl, fab, _ := startCluster(t, 1)
	// Launch against an unknown kernel name must round-trip the error.
	x, _ := ctl.NewArray(memmodel.Float32, 8)
	_, err := ctl.Launch(core.Invocation{Kernel: "no_such_kernel",
		Args: []core.ArgRef{core.ArrRef(x.ID)}})
	if err == nil {
		t.Fatalf("unknown kernel accepted")
	}
	// Malformed kernel source: the message round-trips and the sentinel
	// classification survives the wire.
	if err := fab.BuildKernel("garbage(", ""); err == nil ||
		!strings.Contains(err.Error(), "remote error") ||
		!errors.Is(err, core.ErrKernelCompile) {
		t.Fatalf("remote compile error not propagated: %v", err)
	}
}

func TestWorkerDisconnectFailure(t *testing.T) {
	ctl, _, workers := startCluster(t, 2)
	x, _ := ctl.NewArray(memmodel.Float32, 8)
	// Kill worker 1 mid-session; the next CE placed there must error.
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	_, err := ctl.Launch(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(1), core.ScalarRef(8)}})
	if err == nil {
		t.Fatalf("launch on dead worker succeeded")
	}
}

func TestEstimateTransfer(t *testing.T) {
	f := &TCPFabric{AssumedBandwidth: 1e9}
	if got := f.EstimateTransfer(1, 2, memmodel.Bytes(1e9)); got.Seconds() != 1.0 {
		t.Fatalf("estimate = %v", got)
	}
	if f.EstimateTransfer(1, 1, memmodel.GiB) != 0 {
		t.Fatalf("self estimate nonzero")
	}
}

func TestShutdownStopsWorker(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// A second dial must fail: the server is gone.
	if _, err := Dial([]string{w.Addr()}); err == nil {
		t.Fatalf("dial after shutdown succeeded")
	}
}

func TestMsgKindStrings(t *testing.T) {
	if MsgPing.String() != "ping" || MsgLaunch.String() != "launch" {
		t.Fatalf("msg kind strings wrong")
	}
	if MsgKind(99).String() == "" {
		t.Fatalf("unknown kind empty")
	}
}

// A client speaking garbage must not crash or wedge the worker; real
// clients connecting afterwards still work.
func TestWorkerSurvivesGarbageBytes(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	raw, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("\x00\xffnot a hello at all\n\x01\x02\x03")); err != nil {
		t.Fatal(err)
	}
	_ = raw.Close()
	// The server must still accept and serve a well-formed client.
	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatalf("worker wedged after garbage: %v", err)
	}
	defer fab.Close()
	if _, err := fab.Stats(1); err != nil {
		t.Fatal(err)
	}
}

// Truncated frames (connection cut mid-message) must not corrupt worker
// state for other connections.
func TestWorkerSurvivesTruncatedMessage(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// One legitimate control request, then half a frame header and a
	// slammed connection.
	fc, err := dialFramed(w.Addr(), helloControl, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := newRPCConn(fc, 0)
	if _, err := c.call(&Request{Kind: MsgEnsureArray,
		Meta: grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: 1 << 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.raw.Write([]byte{0x2a, 0x01}); err != nil {
		t.Fatal(err)
	}
	_ = c.close()

	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	st, err := fab.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrays != 1 {
		t.Fatalf("array state lost after truncated peer: %+v", st)
	}
}

// Failover end to end: kill a worker mid-workload; the controller writes
// it off and reroutes subsequent CEs to the survivor.
func TestFailoverReroutesToSurvivor(t *testing.T) {
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true})

	const n = int64(128)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	for i := 0; i < int(n); i++ {
		x.Buf.Set(i, float64(i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	// First CE lands on worker 1.
	if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	// Pull the result home so the controller holds a valid copy, then
	// kill worker 1.
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	// The next CEs must succeed on worker 2 despite round-robin pointing
	// at the dead node half the time.
	for i := 0; i < 3; i++ {
		if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(float64(n))}}); err != nil {
			t.Fatalf("failover launch %d: %v", i, err)
		}
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	if len(ctl.DeadWorkers()) != 1 {
		t.Fatalf("dead workers = %v", ctl.DeadWorkers())
	}
	// Results still correct.
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if x.Buf.At(i) != float64(i) { // relu of non-negative input
			t.Fatalf("x[%d] = %v", i, x.Buf.At(i))
		}
	}
}

// Data loss: the only valid copy of an array dies with its worker; the
// controller must report it instead of rerouting.
func TestFailoverDataLoss(t *testing.T) {
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true})

	const n = int64(64)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	y, _ := ctl.NewArray(memmodel.Float32, n)
	// y is derived from x's first host version on worker 1; a second
	// host write to x then overwrites the controller's buffer. After the
	// kill, y's ONLY copy is gone and its lineage root x@1 is neither
	// live anywhere nor host-held — recovery has nothing to rebuild from.
	for i := 0; i < int(n); i++ {
		x.Buf.Set(i, float64(-i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.Launch(core.Invocation{Kernel: "axpy",
		Args: []core.ArgRef{core.ArrRef(y.ID), core.ArrRef(x.ID), core.ScalarRef(1), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	x.Buf.Fill(1)
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	// A reader cannot be salvaged: first failure marks worker 1 dead,
	// and the reroute discovers the data is gone for good.
	_, err = ctl.Launch(core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{core.ArrRef(y.ID), core.ScalarRef(float64(n))}})
	if !errors.Is(err, core.ErrDataLost) {
		t.Fatalf("data loss not reported as core.ErrDataLost: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("data loss not reported: %v", err)
	}
	// A full-overwrite writer is fine: old contents don't matter.
	if _, err := ctl.Launch(core.Invocation{Kernel: "fill",
		Args: []core.ArgRef{core.ArrRef(y.ID), core.ScalarRef(9), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatalf("overwrite after data loss failed: %v", err)
	}
	if _, err := ctl.HostRead(y.ID); err != nil {
		t.Fatal(err)
	}
	if y.Buf.At(0) != 9 {
		t.Fatalf("y[0] = %v, want 9", y.Buf.At(0))
	}
}

// A full workload over TCP must numerically match the in-process local
// fabric: the two deployment modes are interchangeable.
func TestTCPMatchesLocalFabricOnWorkload(t *testing.T) {
	// Local run.
	localClu := cluster.New(cluster.PaperSpec(2))
	localFab := core.NewLocalFabric(localClu, kernels.StdRegistry(), true)
	localCtl := core.NewController(localFab, policy.NewRoundRobin(), core.Options{Numeric: true})
	localSession := &workloads.Grout{Ctl: localCtl}
	hLocal, err := workloads.CGExplicit(localSession, 48, 8, 2)
	if err != nil {
		t.Fatal(err)
	}

	// TCP run.
	ctl, _, _ := startCluster(t, 2)
	tcpSession := &workloads.Grout{Ctl: ctl}
	hTCP, err := workloads.CGExplicit(tcpSession, 48, 8, 2)
	if err != nil {
		t.Fatal(err)
	}

	for b := range hLocal.X {
		lb := localSession.Buffer(hLocal.X[b])
		tb := tcpSession.Buffer(hTCP.X[b])
		for i := 0; i < lb.Len(); i++ {
			d := lb.At(i) - tb.At(i)
			if d > 1e-6 || d < -1e-6 {
				t.Fatalf("solution differs at block %d index %d: %v vs %v",
					b, i, lb.At(i), tb.At(i))
			}
		}
	}
}

// Concurrent clients hammering one worker must serialize safely on the
// runtime lock (race detector validates this under -race).
func TestWorkerConcurrentClients(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const clients = 8
	errs := make(chan error, clients)
	for cidx := 0; cidx < clients; cidx++ {
		go func(cidx int) {
			fc, err := dialFramed(w.Addr(), helloControl, 0)
			if err != nil {
				errs <- err
				return
			}
			c := newRPCConn(fc, 0)
			defer c.close()
			id := dag.ArrayID(cidx + 1)
			if _, err := c.call(&Request{Kind: MsgEnsureArray,
				Meta: grcuda.ArrayMeta{ID: id, Kind: memmodel.Float32, Len: 1024}}); err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := c.call(&Request{Kind: MsgLaunch, Inv: core.Invocation{
					Kernel: "fill",
					Args: []core.ArgRef{core.ArrRef(id), core.ScalarRef(float64(i)),
						core.ScalarRef(1024)},
				}}); err != nil {
					errs <- err
					return
				}
				if _, err := c.call(&Request{Kind: MsgStats}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(cidx)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Read under the worker's lock: the socket replies order the writes
	// before these reads, but the race detector cannot see that.
	w.mu.Lock()
	arrays, launched := w.Runtime().ArrayCount(), len(w.Runtime().Records())
	w.mu.Unlock()
	if arrays != clients {
		t.Fatalf("arrays = %d, want %d", arrays, clients)
	}
	if launched != clients*20 {
		t.Fatalf("kernels = %d, want %d", launched, clients*20)
	}
}

// TestPipelinedDispatchOverTCP drives the controller against real TCP
// workers: TCPFabric has a launch stream, so resident launches stream and
// the round-robin moves take the blocking path between them. Numeric
// results must match the host-computed expectation.
func TestPipelinedDispatchOverTCP(t *testing.T) {
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < 3; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(),
		core.Options{Numeric: true})
	defer ctl.Close()

	const n = int64(128)
	const arrays = 4
	const rounds = 6
	ids := make([]dag.ArrayID, arrays)
	want := make([][]float64, arrays)
	for a := 0; a < arrays; a++ {
		arr, err := ctl.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		ids[a] = arr.ID
		want[a] = make([]float64, n)
		for i := 0; i < int(n); i++ {
			v := float64(a+1)*float64(i%13) - 6
			arr.Buf.Set(i, v)
			want[a][i] = v
		}
		if _, err := ctl.HostWrite(arr.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Interleaved relu chains across arrays: WAW/RAW dependencies per
	// array, independence across arrays — the round-robin placement
	// forces P2P moves between workers under concurrent dispatch.
	relu := func(x float64) float64 {
		// Mirror the float32 storage round trip of the worker kernels.
		if x < 0 {
			return 0
		}
		return float64(float32(x))
	}
	for r := 0; r < rounds; r++ {
		for a := 0; a < arrays; a++ {
			if _, err := ctl.Submit(core.Invocation{Kernel: "relu",
				Args: []core.ArgRef{core.ArrRef(ids[a]), core.ScalarRef(float64(n))}}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < int(n); i++ {
				want[a][i] = relu(want[a][i])
			}
		}
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < arrays; a++ {
		if _, err := ctl.HostRead(ids[a]); err != nil {
			t.Fatal(err)
		}
		buf := ctl.Array(ids[a]).Buf
		for i := 0; i < int(n); i++ {
			if buf.At(i) != want[a][i] {
				t.Fatalf("array %d elem %d = %v, want %v", a, i, buf.At(i), want[a][i])
			}
		}
	}
	// One host-write per array, rounds relus per array, one host-read per
	// array at verification.
	if len(ctl.Traces()) != arrays*(rounds+2) {
		t.Fatalf("traces = %d, want %d", len(ctl.Traces()), arrays*(rounds+2))
	}
}
