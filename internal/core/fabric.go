// Package core implements GrOUT itself: the Controller/Worker architecture
// of paper §IV. The Controller keeps the Global DAG of Computational
// Elements, tracks which nodes hold an up-to-date copy of every
// framework-managed array, applies an inter-node scheduling policy
// (Algorithm 1) and issues the minimal data movements
// (controller→worker sends and worker↔worker P2P). Each Worker runs the
// GrCUDA intra-node engine (Algorithm 2) over its simulated GPUs.
//
// The Controller talks to workers through the Fabric interface. LocalFabric
// runs every worker in-process over the cluster simulator in virtual time —
// this is the configuration all experiments use. The transport package
// provides a TCP fabric with the same semantics over real sockets.
package core

import (
	"errors"
	"fmt"
	"sync"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/sim"
)

// ArgRef is a kernel argument by global array ID (or a scalar).
type ArgRef struct {
	IsArray bool
	Array   dag.ArrayID
	Scalar  float64
}

// ArrRef makes an array argument reference.
func ArrRef(id dag.ArrayID) ArgRef { return ArgRef{IsArray: true, Array: id} }

// ScalarRef makes a scalar argument reference.
func ScalarRef(v float64) ArgRef { return ArgRef{Scalar: v} }

// Invocation is a kernel launch expressed against global array IDs.
type Invocation struct {
	Kernel      string
	Grid, Block int
	Args        []ArgRef
}

// Fabric is the Controller's view of the worker fleet and interconnect.
//
// The optional fast paths BulkEstimator, StallPredictor and KernelBuilder
// each have one default, written once in the helpers of the same names
// below (EstimateTransferAll, PredictStall, BuildKernel); callers go
// through a helper rather than asserting the interface. The wrapper rule:
// a fabric that wraps another implements all three and forwards each
// through its helper, so wrapping never changes what the controller sees,
// and does not forward AsyncLauncher, whose absence selects the serial,
// blocking path.
type Fabric interface {
	// Workers lists the worker node IDs.
	Workers() []cluster.NodeID
	// EnsureArray mirrors a global array's metadata on a worker
	// (idempotent; allocates host memory there).
	EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error
	// MoveArray ships array id from src to dst (either may be the
	// controller, ControllerID). srcBuf carries the payload when src is
	// the controller; dstBuf, when non-nil and dst is the controller,
	// receives the payload. The move may not start before srcReady.
	// Returns the arrival time at dst.
	//
	// Concurrent-bulk contract: a fabric that is safe for concurrent use
	// (TCPFabric, LocalFabric) must accept MoveArray calls for *different*
	// arrays concurrently — with each other and with Launch/EnsureArray/
	// Healthy on any worker — and may serve them in order per link, but
	// never ahead of control traffic: a large payload must not block small
	// control operations. Concurrent moves of the same array are the
	// Controller's responsibility to order (the DAG serializes them).
	MoveArray(id dag.ArrayID, src, dst cluster.NodeID, srcReady sim.VirtualTime,
		srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error)
	// Launch executes a kernel on worker w, starting no earlier than
	// ready; returns the completion time.
	Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error)
	// EstimateTransfer predicts an idle-network transfer duration, for
	// the min-transfer-time policy's interconnection matrix.
	EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime
	// FreeArray drops a worker's replica of an array, if present.
	FreeArray(w cluster.NodeID, id dag.ArrayID) error
	// Healthy reports whether a worker currently responds; the
	// Controller's failover uses it to identify which node an operation
	// actually died on.
	Healthy(w cluster.NodeID) bool
}

// BulkEstimator is an optional Fabric fast path: fill the idle-network
// estimates from one source to many destinations in a single call, so the
// controller's O(workers) scheduling loop pays one interface call per
// (array, source) instead of one per (array, worker) cell. out is indexed
// by destination NodeID and must be at least max(dsts)+1 long.
type BulkEstimator interface {
	EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes, dsts []cluster.NodeID, out []sim.VirtualTime)
}

// StallPredictor is an optional Fabric extension: predict the UVM
// migration stall a kernel with the given working-set size and dominant
// access pattern would pay on worker w after add more bytes landed there.
// The controller only queries it for policies that request the stall view
// (policy.StallAware), and treats fabrics without the extension — or
// workers it cannot see into — as stall-free, which degrades gracefully
// to pure transfer-time ranking.
type StallPredictor interface {
	PredictStall(w cluster.NodeID, add, working memmodel.Bytes,
		pattern memmodel.Pattern) sim.VirtualTime
}

// BulkMover ships several controller-resident arrays to one worker as a
// single bulk operation.
//
// Deprecated: uncalled; kept for benchmark/seams.go.
type BulkMover interface {
	MoveArrays(dst cluster.NodeID, ids []dag.ArrayID, srcReady sim.VirtualTime,
		bufs []*kernels.Buffer) (sim.VirtualTime, error)
}

// AsyncLauncher is an optional Fabric extension for fabrics whose worker
// executes the launches of one control channel strictly in the order they
// were started (real transports; see pipeline.go's streamed dispatch).
// StartLaunch queues a launch on worker w without waiting for the answers
// to the launches started before it and reports its outcome through done:
// exactly once, from a fabric goroutine, never blocking, and only if
// StartLaunch returned nil. A started launch runs after every launch
// started on w before it; when one fails because the channel broke, every
// launch started behind it fails too. FlushLaunches puts w's queued
// launches on the wire — callers flush before they wait for an answer.
// One goroutine at a time starts launches, and it calls the blocking
// Launch only with nothing in flight.
//
// Unlike the optional fast paths, a wrapper does NOT forward this one
// (see Fabric's wrapper rule): absence selects the blocking Launch path,
// which is always correct, and a wrapper that forwarded it would have to
// keep the ordering itself. PartitionFabric and ChaosFabric do not.
type AsyncLauncher interface {
	StartLaunch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime,
		done func(end sim.VirtualTime, err error)) error
	FlushLaunches(w cluster.NodeID)
}

// LocalFabric runs workers in-process over the cluster simulator. It is
// safe for concurrent use: every call that touches the shared virtual
// timelines, a worker runtime or the launch scratch holds mu, so sharded
// controllers, and a controller's submitters and its dispatcher goroutine,
// can share one fleet. Order is still observable, so it has no launch
// stream (AsyncLauncher) and each controller issues its calls in
// submission order. Workers, Healthy and the transfer estimates read
// immutable spec data and take no lock.
type LocalFabric struct {
	clu     *cluster.Cluster
	reg     *kernels.Registry
	numeric bool
	workers map[cluster.NodeID]*grcuda.Runtime

	mu sync.Mutex
	// valsBuf is Launch's argument scratch, guarded by mu.
	valsBuf []grcuda.Value
}

// NewLocalFabric builds an in-process fabric: one GrCUDA runtime per
// worker in the cluster spec. With numeric set, kernels execute their host
// implementations and transfers copy real buffers.
func NewLocalFabric(clu *cluster.Cluster, reg *kernels.Registry, numeric bool) *LocalFabric {
	f := &LocalFabric{
		clu:     clu,
		reg:     reg,
		numeric: numeric,
		workers: make(map[cluster.NodeID]*grcuda.Runtime),
	}
	for _, id := range clu.Workers() {
		f.workers[id] = grcuda.NewRuntime(clu.Worker(id), reg, grcuda.Options{ExecuteNumeric: numeric})
	}
	return f
}

// Runtime exposes a worker's GrCUDA engine (tests and traces).
func (f *LocalFabric) Runtime(w cluster.NodeID) *grcuda.Runtime { return f.workers[w] }

// Cluster exposes the underlying cluster simulator.
func (f *LocalFabric) Cluster() *cluster.Cluster { return f.clu }

// Workers implements Fabric.
func (f *LocalFabric) Workers() []cluster.NodeID { return f.clu.Workers() }

// EnsureArray implements Fabric.
func (f *LocalFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[w]
	if !ok {
		return fmt.Errorf("core: unknown worker %v", w)
	}
	if rt.Array(meta.ID) != nil {
		return nil
	}
	_, err := rt.NewArrayWithID(meta.ID, meta.Kind, meta.Len)
	if err != nil && errors.Is(err, gpusim.ErrHostMemoryExhausted) {
		err = fmt.Errorf("%w: %v", ErrOOM, err)
	}
	return err
}

// MoveArray implements Fabric.
func (f *LocalFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID,
	srcReady sim.VirtualTime, srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if src == dst {
		return srcReady, nil
	}

	var payload *kernels.Buffer
	ready := srcReady
	var size memmodel.Bytes

	if src.IsWorker() {
		rt, ok := f.workers[src]
		if !ok {
			return 0, fmt.Errorf("core: unknown source worker %v", src)
		}
		arr := rt.Array(id)
		if arr == nil {
			return 0, fmt.Errorf("core: array %d not present on %v: %w", id, src, ErrArrayNotFound)
		}
		// Dirty device pages must reach the worker's host copy first.
		flushed, err := rt.Node().FlushForSend(arr.Alloc, srcReady)
		if err != nil {
			return 0, err
		}
		ready = flushed
		payload = arr.Buf
		size = arr.Bytes()
	} else {
		payload = srcBuf
		if payload != nil {
			size = payload.Bytes()
		}
	}

	if dst.IsWorker() {
		rt, ok := f.workers[dst]
		if !ok {
			return 0, fmt.Errorf("core: unknown destination worker %v", dst)
		}
		arr := rt.Array(id)
		if arr == nil {
			return 0, fmt.Errorf("core: array %d not ensured on %v before move: %w", id, dst, ErrArrayNotFound)
		}
		size = arr.Bytes()
		iv := f.clu.Transfer(src, dst, size, ready)
		// The arriving data overwrites the worker's host copy; stale
		// device pages drop without write-back.
		if err := rt.Node().Invalidate(arr.Alloc); err != nil {
			return 0, err
		}
		if f.numeric && payload != nil && arr.Buf != nil {
			copyBuffer(arr.Buf, payload)
		}
		return iv.End, nil
	}

	// Worker -> controller.
	iv := f.clu.Transfer(src, dst, size, ready)
	if f.numeric && payload != nil && dstBuf != nil {
		copyBuffer(dstBuf, payload)
	}
	return iv.End, nil
}

// MoveArrays implements BulkMover: one cluster transfer of the summed
// size carries every array.
//
// Deprecated: uncalled; kept for benchmark/seams.go.
func (f *LocalFabric) MoveArrays(dst cluster.NodeID, ids []dag.ArrayID,
	srcReady sim.VirtualTime, bufs []*kernels.Buffer) (sim.VirtualTime, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[dst]
	if !ok {
		return 0, fmt.Errorf("core: unknown destination worker %v", dst)
	}
	var total memmodel.Bytes
	for _, id := range ids {
		arr := rt.Array(id)
		if arr == nil {
			return 0, fmt.Errorf("core: array %d not ensured on %v before move: %w", id, dst, ErrArrayNotFound)
		}
		total += arr.Bytes()
	}
	iv := f.clu.Transfer(cluster.ControllerID, dst, total, srcReady)
	for k, id := range ids {
		arr := rt.Array(id)
		if err := rt.Node().Invalidate(arr.Alloc); err != nil {
			return 0, err
		}
		if f.numeric && k < len(bufs) && bufs[k] != nil && arr.Buf != nil {
			copyBuffer(arr.Buf, bufs[k])
		}
	}
	return iv.End, nil
}

// copyBuffer copies src's contents into dst (same kind and length by
// construction; shorter of the two otherwise).
func copyBuffer(dst, src *kernels.Buffer) {
	n := dst.Len()
	if src.Len() < n {
		n = src.Len()
	}
	for i := 0; i < n; i++ {
		dst.Set(i, src.At(i))
	}
}

// Launch implements Fabric.
func (f *LocalFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[w]
	if !ok {
		return 0, fmt.Errorf("core: unknown worker %v", w)
	}
	if cap(f.valsBuf) < len(inv.Args) {
		f.valsBuf = make([]grcuda.Value, len(inv.Args))
	}
	vals := f.valsBuf[:len(inv.Args)]
	for i, a := range inv.Args {
		if !a.IsArray {
			vals[i] = grcuda.ScalarValue(a.Scalar)
			continue
		}
		arr := rt.Array(a.Array)
		if arr == nil {
			return 0, fmt.Errorf("core: worker %v launch references unknown array %d: %w", w, a.Array, ErrArrayNotFound)
		}
		vals[i] = grcuda.ArrValue(arr)
	}
	return rt.Submit(grcuda.Invocation{
		Kernel: inv.Kernel, Grid: inv.Grid, Block: inv.Block, Args: vals,
	}, ready)
}

// EstimateTransfer implements Fabric.
func (f *LocalFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return f.clu.EstimateTransfer(src, dst, n)
}

// PredictStall implements StallPredictor by asking the worker's simulated
// node directly — the in-process fabric can see real allocation pressure
// and the installed prefetch policy.
func (f *LocalFabric) PredictStall(w cluster.NodeID, add, working memmodel.Bytes,
	pattern memmodel.Pattern) sim.VirtualTime {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[w]
	if !ok {
		return 0
	}
	return rt.Node().PredictStall(add, working, pattern)
}

// EstimateTransferAll implements BulkEstimator.
func (f *LocalFabric) EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes,
	dsts []cluster.NodeID, out []sim.VirtualTime) {
	f.clu.EstimateTransferAll(src, n, dsts, out)
}

// FreeArray implements Fabric.
func (f *LocalFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[w]
	if !ok {
		return fmt.Errorf("core: unknown worker %v", w)
	}
	if rt.Array(id) == nil {
		return nil
	}
	return rt.FreeArray(id)
}

// Healthy implements Fabric: in-process workers cannot die.
func (f *LocalFabric) Healthy(w cluster.NodeID) bool {
	_, ok := f.workers[w]
	return ok
}

// WorkerStats aggregates a worker's device counters for reports.
func (f *LocalFabric) WorkerStats(w cluster.NodeID) []gpusim.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	rt, ok := f.workers[w]
	if !ok {
		return nil
	}
	devs := rt.Node().Devices()
	out := make([]gpusim.Stats, len(devs))
	for i, d := range devs {
		out[i] = d.Stats()
	}
	return out
}

// KernelBuilder is implemented by fabrics that can distribute
// runtime-compiled kernels to their workers (the buildkernel path of the
// paper's Listing 1: the Controller issues the NVRTC build and every
// Worker must know the resulting kernel).
type KernelBuilder interface {
	// BuildKernel compiles source with an NFI signature and registers
	// the kernel wherever workers resolve kernels.
	BuildKernel(src, signature string) error
}

// BuildKernel implements KernelBuilder: the kernel is compiled once and
// registered in the registry shared by every in-process worker.
func (f *LocalFabric) BuildKernel(src, signature string) error {
	def, err := minicuda.Compile(src, signature)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrKernelCompile, err)
	}
	_, err = f.reg.LookupOrRegister(def)
	return err
}

// EstimateTransferAll fills out[d] for every d in dsts through f's
// BulkEstimator, or with one EstimateTransfer per destination.
func EstimateTransferAll(f Fabric, src cluster.NodeID, n memmodel.Bytes,
	dsts []cluster.NodeID, out []sim.VirtualTime) {
	if be, ok := f.(BulkEstimator); ok {
		be.EstimateTransferAll(src, n, dsts, out)
		return
	}
	for _, d := range dsts {
		out[d] = f.EstimateTransfer(src, d, n)
	}
}

// PredictStall asks f's StallPredictor; a fabric without one is
// stall-free.
func PredictStall(f Fabric, w cluster.NodeID, add, working memmodel.Bytes,
	pattern memmodel.Pattern) sim.VirtualTime {
	if sp, ok := f.(StallPredictor); ok {
		return sp.PredictStall(w, add, working, pattern)
	}
	return 0
}

// BuildKernel broadcasts a runtime-compiled kernel through f's
// KernelBuilder. A fabric without one has no worker-side registry to
// tell, so there is nothing to do.
func BuildKernel(f Fabric, src, signature string) error {
	if kb, ok := f.(KernelBuilder); ok {
		return kb.BuildKernel(src, signature)
	}
	return nil
}
