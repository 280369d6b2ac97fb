package main

// Isolated probes for the layers that have no seam the benchmark can
// reach from outside: each drives one layer's entry point directly for a
// fixed number of operations and reports host time per operation. They
// run in every traced run, after the workload, in the same process.

import (
	"fmt"
	"net"
	"slices"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/policy"
	"grout/internal/transport"
)

const (
	probeStreamCEs    = 20000 // Fig. 9 relu stream length
	probeStreamArrays = 16
	probeStreamElems  = int64(16 * memmodel.MiB / 4)
	probeRTTs         = 4000
	probeKernelElems  = 1 << 18
	probeKernelReps   = 5
)

func runProbes(vals map[string]float64) error {
	for _, p := range []func(map[string]float64) error{
		probeController, probeDAG, probeGrcuda, probeGpusim,
		probeTransport, probeKernels, probeCompile,
	} {
		if err := p(vals); err != nil {
			return fmt.Errorf("benchmark: probe: %w", err)
		}
	}
	return nil
}

// streamFleet is the Fig. 9 probe system: a cost-only two-worker
// LocalFabric and sixteen 16 MiB arrays, relu launched over them round
// robin.
func streamFleet(opts core.Options) (*core.Controller, []core.ArgRef, error) {
	fab := core.NewLocalFabric(cluster.New(cluster.PaperSpec(fleetWorkers)), kernels.StdRegistry(), false)
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), opts)
	ids := make([]core.ArgRef, probeStreamArrays)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, probeStreamElems)
		if err != nil {
			return nil, nil, err
		}
		ids[i] = core.ArrRef(arr.ID)
	}
	return ctl, ids, nil
}

func streamInvocation(ids []core.ArgRef, i int) core.Invocation {
	return core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{ids[i%len(ids)], core.ScalarRef(float64(probeStreamElems))}}
}

// probeController splits the layer above the fabric: the time a caller is
// blocked per Submit with the default options (pipeline and optimizer
// window on) and per blocking Launch on the serial controller.
func probeController(vals map[string]float64) error {
	ctl, ids, err := streamFleet(core.Options{Pipeline: true, OptimizeWindow: 32})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < probeStreamCEs; i++ {
		if _, err := ctl.Submit(streamInvocation(ids, i)); err != nil {
			return err
		}
	}
	blocked := time.Since(start)
	if err := ctl.Close(); err != nil {
		return err
	}
	vals["core.submit_us_per_ce"] = float64(blocked) / 1e3 / probeStreamCEs

	ctl, ids, err = streamFleet(core.Options{})
	if err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < probeStreamCEs; i++ {
		if _, err := ctl.Launch(streamInvocation(ids, i)); err != nil {
			return err
		}
	}
	vals["core.launch_us_per_ce"] = float64(time.Since(start)) / 1e3 / probeStreamCEs
	return ctl.Close()
}

// probeDAG replays the relu stream's access sequence into a bare graph.
func probeDAG(vals map[string]float64) error {
	g := dag.New()
	start := time.Now()
	for i := 0; i < probeStreamCEs; i++ {
		ce := g.NewCE("relu", []dag.Access{
			{Array: dag.ArrayID(i%probeStreamArrays + 1), Mode: memmodel.ReadWrite}}, nil)
		g.Add(ce)
	}
	vals["dag.add_ns_per_ce"] = float64(time.Since(start)) / probeStreamCEs
	return nil
}

// probeGrcuda submits the relu stream straight to one worker's cost-only
// intra-node runtime.
func probeGrcuda(vals map[string]float64) error {
	rt := grcuda.NewRuntime(gpusim.NewNode(gpusim.OCIWorkerSpec("probe")), kernels.StdRegistry(), grcuda.Options{})
	arrs := make([]*grcuda.Array, probeStreamArrays)
	for i := range arrs {
		var err error
		if arrs[i], err = rt.NewArray(memmodel.Float32, probeStreamElems); err != nil {
			return err
		}
	}
	start := time.Now()
	for i := 0; i < probeStreamCEs; i++ {
		inv := grcuda.Invocation{Kernel: "relu", Args: []grcuda.Value{
			grcuda.ArrValue(arrs[i%len(arrs)]), grcuda.ScalarValue(float64(probeStreamElems))}}
		if _, err := rt.Submit(inv, 0); err != nil {
			return err
		}
	}
	vals["grcuda.submit_us_per_ce"] = float64(time.Since(start)) / 1e3 / probeStreamCEs
	return nil
}

// probeGpusim times one sequential kernel launched repeatedly over an
// allocation at half and at twice one device's memory: the UVM model's
// host cost per launch when everything fits and when every launch evicts.
func probeGpusim(vals map[string]float64) error {
	for _, c := range []struct {
		metric string
		factor float64
		reps   int
	}{
		{"gpusim.host_ns_per_launch_fit", 0.5, 20000},
		{"gpusim.host_ns_per_launch_oversub", 2.0, 2000},
	} {
		spec := gpusim.OCIWorkerSpec("probe")
		node := gpusim.NewNode(spec)
		id, err := node.Alloc(memmodel.Bytes(c.factor * float64(spec.Devices[0].Memory)))
		if err != nil {
			return err
		}
		acc := memmodel.Access{Mode: memmodel.ReadWrite, Pattern: memmodel.Sequential, Fraction: 1, Passes: 1}
		bind := []gpusim.ArgBinding{{Alloc: id, Access: acc}}
		start := time.Now()
		for i := 0; i < c.reps; i++ {
			if _, err := node.Launch(0, 0, gpusim.KernelCost{Elements: 1 << 20, OpsPerElement: 1}, bind, 0); err != nil {
				return err
			}
		}
		vals[c.metric] = float64(time.Since(start)) / float64(c.reps)
	}
	return nil
}

func p50us(durs []time.Duration) float64 {
	slices.Sort(durs)
	return float64(durs[len(durs)/2]) / 1e3
}

// probeTransport measures the two wire floors: a worker control round
// trip (Healthy is a ping) and a session-wire round trip against an echo
// loop.
func probeTransport(vals map[string]float64) error {
	w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("probe"), nil)
	if err != nil {
		return err
	}
	defer w.Close()
	fab, err := transport.Dial([]string{w.Addr()})
	if err != nil {
		return err
	}
	defer fab.Close()
	durs := make([]time.Duration, probeRTTs)
	for i := range durs {
		t := time.Now()
		if !fab.Healthy(1) {
			return fmt.Errorf("worker ping failed")
		}
		durs[i] = time.Since(t)
	}
	vals["transport.worker_ping_us_p50"] = p50us(durs)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoDone := make(chan error, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		conn, err := transport.AcceptSession(raw, 0)
		if err != nil {
			raw.Close()
			echoDone <- err
			return
		}
		defer conn.Close()
		var req transport.SessionRequest
		for {
			id, err := conn.ReadRequest(&req)
			if err != nil {
				echoDone <- nil // the client hung up: done
				return
			}
			if err := conn.Reply(id, &transport.SessionResponse{}); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	conn, err := transport.DialSession(ln.Addr().String(), 0, 0)
	if err != nil {
		return err
	}
	for i := range durs {
		t := time.Now()
		if _, err := conn.Call(&transport.SessionRequest{Kind: transport.SessPing}); err != nil {
			conn.Close()
			return err
		}
		durs[i] = time.Since(t)
	}
	vals["transport.session_rtt_us_p50"] = p50us(durs)
	if err := conn.Close(); err != nil {
		return err
	}
	return <-echoDone
}

const probeTriadSrc = `
extern "C" __global__ void probe_triad(float *a, const float *b, const float *c, float s, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = b[i] + s * c[i];
    }
}`

const probeSpmvSrc = `
extern "C" __global__ void probe_spmv(float *y, const int *rowptr, const int *colidx, const float *vals, const float *x, int rows) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < rows) {
        float sum = 0.0;
        int e0 = rowptr[i];
        int e1 = rowptr[i + 1];
        for (int j = e0; j < e1; j++) {
            sum += vals[j] * x[colidx[j]];
        }
        y[i] = sum;
    }
}`

// timeKernel reports the best of probeKernelReps executions in ns per
// element: kernels are deterministic CPU loops, so the minimum is the
// figure least disturbed by the sandbox.
func timeKernel(def *kernels.Def, grid, block int, args []kernels.Arg, elems int) (float64, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < probeKernelReps; r++ {
		t := time.Now()
		if err := def.ExecuteLaunch(grid, block, args); err != nil {
			return 0, err
		}
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return float64(best) / float64(elems), nil
}

func f32(n int, f func(i int) float64) *kernels.Buffer {
	b := kernels.NewBuffer(memmodel.Float32, n)
	for i := range b.F32 {
		b.F32[i] = float32(f(i))
	}
	return b
}

// probeKernels executes two native kernels and two compiled mini-CUDA
// kernels directly: the engines under every numeric launch.
func probeKernels(vals map[string]float64) error {
	const n = probeKernelElems
	const block = 256
	grid := (n + block - 1) / block
	reg := kernels.StdRegistry()
	count := kernels.ScalarArg(n)

	relu, _ := reg.Lookup("relu")
	x := f32(n, func(i int) float64 { return float64(i%7) - 3 })
	var err error
	if vals["kernels.relu_ns_per_elem"], err = timeKernel(relu, 1, 1,
		[]kernels.Arg{kernels.BufArg(x), count}, n); err != nil {
		return err
	}

	bs, _ := reg.Lookup("blackscholes")
	spot := f32(n, func(i int) float64 { return 60 + float64(i%80) })
	call, put := kernels.NewBuffer(memmodel.Float32, n), kernels.NewBuffer(memmodel.Float32, n)
	if vals["kernels.blackscholes_ns_per_elem"], err = timeKernel(bs, 1, 1,
		[]kernels.Arg{kernels.BufArg(call), kernels.BufArg(put), kernels.BufArg(spot), count}, n); err != nil {
		return err
	}

	triad, err := minicuda.Compile(probeTriadSrc, "")
	if err != nil {
		return err
	}
	a := kernels.NewBuffer(memmodel.Float32, n)
	b := f32(n, func(i int) float64 { return float64(i % 251) })
	c := f32(n, func(i int) float64 { return float64(i % 127) })
	if vals["minicuda.triad_ns_per_elem"], err = timeKernel(triad, grid, block,
		[]kernels.Arg{kernels.BufArg(a), kernels.BufArg(b), kernels.BufArg(c), kernels.ScalarArg(2), count}, n); err != nil {
		return err
	}

	spmv, err := minicuda.Compile(probeSpmvSrc, "")
	if err != nil {
		return err
	}
	const deg = 8
	rows := n / deg
	rowptr := kernels.NewBuffer(memmodel.Int32, rows+1)
	for i := range rowptr.I32 {
		rowptr.I32[i] = int32(i * deg)
	}
	colidx := kernels.NewBuffer(memmodel.Int32, n)
	for i := range colidx.I32 {
		colidx.I32[i] = int32((i/deg*7 + i%deg*461 + 1) % rows)
	}
	mvals := f32(n, func(i int) float64 { return float64(i%13) * 0.25 })
	xs := f32(rows, func(i int) float64 { return float64(i%31) * 0.5 })
	y := kernels.NewBuffer(memmodel.Float32, rows)
	vals["minicuda.spmv_ns_per_elem"], err = timeKernel(spmv, (rows+block-1)/block, block,
		[]kernels.Arg{kernels.BufArg(y), kernels.BufArg(rowptr), kernels.BufArg(colidx),
			kernels.BufArg(mvals), kernels.BufArg(xs), kernels.ScalarArg(float64(rows))}, n)
	return err
}

// probeCompile times the buildkernel path cold (front end runs) and cached
// (hash lookup), on the spmv kernel.
func probeCompile(vals map[string]float64) error {
	const reps = 20
	var cold, cached time.Duration
	for r := 0; r < reps; r++ {
		minicuda.FlushCompileCache()
		t := time.Now()
		if _, err := minicuda.Compile(probeSpmvSrc, ""); err != nil {
			return err
		}
		cold += time.Since(t)
		t = time.Now()
		if _, err := minicuda.Compile(probeSpmvSrc, ""); err != nil {
			return err
		}
		cached += time.Since(t)
	}
	vals["minicuda.compile_cold_us"] = float64(cold) / 1e3 / reps
	vals["minicuda.compile_cached_us"] = float64(cached) / 1e3 / reps
	return nil
}
