// Package grcuda implements the single-node polyglot GPU runtime GrOUT
// builds on (Parravicini et al., IPDPS'21): a Local DAG of Computational
// Elements, automatic dependency tracking, and a runtime stream scheduler
// that spreads independent CEs over the node's GPUs and CUDA streams
// (paper Algorithm 2). GrOUT embeds one instance per Worker; used
// standalone it is the paper's single-node baseline.
package grcuda

import (
	"fmt"

	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/ring"
	"grout/internal/sim"
)

// ArrayMeta is the location-independent description of a framework-managed
// array.
type ArrayMeta struct {
	ID   dag.ArrayID
	Kind memmodel.ElemKind
	Len  int64
}

// Bytes reports the array's size.
func (m ArrayMeta) Bytes() memmodel.Bytes {
	return memmodel.Bytes(m.Len) * m.Kind.Size()
}

// Array is a UVM array managed by a runtime instance.
type Array struct {
	ArrayMeta
	// Alloc is the backing simulated UVM allocation.
	Alloc gpusim.AllocID
	// Buf holds real element data when the runtime executes numerically;
	// nil in cost-model-only simulations.
	Buf *kernels.Buffer
}

// Value is one actual argument of a kernel invocation: an array or a
// scalar.
type Value struct {
	Arr    *Array
	Scalar float64
}

// ArrValue wraps an array argument.
func ArrValue(a *Array) Value { return Value{Arr: a} }

// ScalarValue wraps a scalar argument.
func ScalarValue(v float64) Value { return Value{Scalar: v} }

// Invocation is a kernel launch request.
type Invocation struct {
	Kernel string
	// Grid and Block are the launch configuration; they are carried for
	// API fidelity (the cost model derives work from arguments).
	Grid, Block int
	Args        []Value
}

// Options tunes a runtime instance.
type Options struct {
	// MaxStreamsPerDevice caps stream creation (GrCUDA creates streams on
	// demand). Zero means the default of 16.
	MaxStreamsPerDevice int
	// ExecuteNumeric makes the runtime allocate host buffers and run
	// kernels' numeric implementations alongside the cost model.
	ExecuteNumeric bool
}

// CERecord is the execution record of one CE, for tests and traces.
type CERecord struct {
	CE     dag.CEID
	Label  string
	Device int
	Stream int
	Start  sim.VirtualTime
	End    sim.VirtualTime
	Regime gpusim.Regime
}

// recordRing is how many execution records a runtime keeps: Records
// returns the most recent recordRing CEs.
const recordRing = 4096

// ceState is the runtime's record of one CE — its completion time and, for
// a kernel that ran, its placement (stream reuse) — hung on the CE's
// Payload so that it lives exactly as long as the CE's Local-DAG vertex.
type ceState struct {
	end         sim.VirtualTime
	dev, stream int // -1 for host ops and failed launches
}

func stateOf(ce *dag.CE) *ceState { return ce.Payload.(*ceState) }

// Runtime is a single-node GrCUDA engine.
type Runtime struct {
	node     *gpusim.Node
	reg      *kernels.Registry
	opts     Options
	graph    *dag.Graph
	arrays   map[dag.ArrayID]*Array
	nextArr  dag.ArrayID
	records  ring.Ring[CERecord]
	launches int
	elapsed  sim.VirtualTime
	// per-Submit scratch buffers (the runtime is single-goroutine).
	metasBuf    []kernels.ArgMeta
	bindingsBuf []gpusim.ArgBinding
	dagAccs     []dag.Access
}

// NewRuntime builds a runtime over a simulated node and kernel registry.
func NewRuntime(node *gpusim.Node, reg *kernels.Registry, opts Options) *Runtime {
	if opts.MaxStreamsPerDevice <= 0 {
		opts.MaxStreamsPerDevice = 16
	}
	return &Runtime{
		node:    node,
		reg:     reg,
		opts:    opts,
		graph:   dag.New(),
		arrays:  make(map[dag.ArrayID]*Array),
		nextArr: 1,
		records: ring.New[CERecord](recordRing),
	}
}

// Node exposes the underlying simulated node.
func (r *Runtime) Node() *gpusim.Node { return r.node }

// Graph exposes the Local DAG.
func (r *Runtime) Graph() *dag.Graph { return r.graph }

// Registry exposes the kernel registry.
func (r *Runtime) Registry() *kernels.Registry { return r.reg }

// Records returns the per-CE execution trace: the most recent recordRing
// (4096) CEs, oldest first, as a copy.
func (r *Runtime) Records() []CERecord { return r.records.Slice() }

// Launches reports how many kernel launches the runtime has executed.
func (r *Runtime) Launches() int { return r.launches }

// Elapsed reports the makespan: the completion time of the latest CE.
func (r *Runtime) Elapsed() sim.VirtualTime { return r.elapsed }

// NewArray allocates a framework-managed array with an automatic ID.
func (r *Runtime) NewArray(kind memmodel.ElemKind, n int64) (*Array, error) {
	id := r.nextArr
	r.nextArr++
	return r.NewArrayWithID(id, kind, n)
}

// NewArrayWithID allocates an array under a caller-chosen global ID (used
// by GrOUT workers mirroring controller arrays).
func (r *Runtime) NewArrayWithID(id dag.ArrayID, kind memmodel.ElemKind, n int64) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("grcuda: invalid array length %d", n)
	}
	if _, dup := r.arrays[id]; dup {
		return nil, fmt.Errorf("grcuda: array %d already exists", id)
	}
	meta := ArrayMeta{ID: id, Kind: kind, Len: n}
	if err := r.node.AllocWithID(gpusim.AllocID(id), meta.Bytes()); err != nil {
		return nil, fmt.Errorf("grcuda: allocating array %d: %w", id, err)
	}
	arr := &Array{ArrayMeta: meta, Alloc: gpusim.AllocID(id)}
	if r.opts.ExecuteNumeric {
		arr.Buf = kernels.NewBuffer(kind, int(n))
	}
	r.arrays[id] = arr
	if id >= r.nextArr {
		r.nextArr = id + 1
	}
	return arr, nil
}

// Array returns the array with the given ID, or nil.
func (r *Runtime) Array(id dag.ArrayID) *Array { return r.arrays[id] }

// FreeArray releases an array.
func (r *Runtime) FreeArray(id dag.ArrayID) error {
	arr, ok := r.arrays[id]
	if !ok {
		return fmt.Errorf("grcuda: free of unknown array %d", id)
	}
	if err := r.node.Free(arr.Alloc); err != nil {
		return err
	}
	delete(r.arrays, id)
	// The array's last writer and readers leave the frontier: no later CE
	// can depend on them through freed memory (an array created later under
	// the same ID is a fresh allocation).
	r.graph.DropArray(id)
	return nil
}

// metasOf builds scheduler-visible argument metadata from values.
func metasOf(args []Value) []kernels.ArgMeta {
	metas := make([]kernels.ArgMeta, len(args))
	fillMetas(metas, args)
	return metas
}

func fillMetas(metas []kernels.ArgMeta, args []Value) {
	for i, v := range args {
		if v.Arr != nil {
			metas[i] = kernels.ArgMeta{IsBuffer: true, Len: v.Arr.Len}
		} else {
			metas[i] = kernels.ArgMeta{Scalar: v.Scalar}
		}
	}
}

// Submit schedules a kernel invocation: it enters the Local DAG, gets a
// device and stream from the intra-node policy, and executes on the
// simulated node. The launch starts no earlier than ready (the Controller
// passes transfer-completion times here). Returns the completion time.
func (r *Runtime) Submit(inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	def, ok := r.reg.Lookup(inv.Kernel)
	if !ok {
		return 0, fmt.Errorf("grcuda: unknown kernel %q", inv.Kernel)
	}
	if len(inv.Args) != len(def.Sig.Params) {
		return 0, fmt.Errorf("grcuda: %s wants %d arguments, got %d",
			inv.Kernel, len(def.Sig.Params), len(inv.Args))
	}
	for i, v := range inv.Args {
		if def.Sig.Params[i].Pointer && v.Arr == nil {
			return 0, fmt.Errorf("grcuda: %s argument %d must be an array", inv.Kernel, i)
		}
		if !def.Sig.Params[i].Pointer && v.Arr != nil {
			return 0, fmt.Errorf("grcuda: %s argument %d must be a scalar", inv.Kernel, i)
		}
	}

	if cap(r.metasBuf) < len(inv.Args) {
		r.metasBuf = make([]kernels.ArgMeta, len(inv.Args))
	}
	metas := r.metasBuf[:len(inv.Args)]
	fillMetas(metas, inv.Args)
	accs := def.Access(metas)

	// Build the CE and resolve dependencies (Local DAG).
	r.dagAccs = r.dagAccs[:0]
	for i, v := range inv.Args {
		if v.Arr == nil {
			continue
		}
		r.dagAccs = append(r.dagAccs, dag.Access{Array: v.Arr.ID, Mode: accs[i].Mode})
	}
	ce, ancestors, depReady := r.addCE(inv.Kernel, r.dagAccs, ready)
	// The runtime is synchronous in virtual time: the CE is over, one way
	// or the other, when Submit returns.
	defer r.graph.Complete(ce)

	dev := r.pickDevice(inv.Args)
	stream := r.pickStream(dev, ancestors, depReady)

	// Bind gpusim arguments (gpusim builds its own plans; the binding
	// slice is scratch).
	bindings := r.bindingsBuf[:0]
	for i, v := range inv.Args {
		if v.Arr == nil {
			continue
		}
		bindings = append(bindings, gpusim.ArgBinding{Alloc: v.Arr.Alloc, Access: accs[i]})
	}
	r.bindingsBuf = bindings[:0]
	cost := def.CostLaunch(inv.Grid, inv.Block, metas)
	res, err := r.node.Launch(dev, stream, gpusim.KernelCost{
		Name:          inv.Kernel,
		Elements:      cost.Elements,
		OpsPerElement: cost.OpsPerElement,
	}, bindings, depReady)
	if err != nil {
		return 0, err
	}

	*stateOf(ce) = ceState{end: res.Interval.End, dev: dev, stream: stream}
	if res.Interval.End > r.elapsed {
		r.elapsed = res.Interval.End
	}
	r.launches++
	r.records.Push(CERecord{
		CE: ce.ID, Label: inv.Kernel, Device: dev, Stream: stream,
		Start: res.Interval.Start, End: res.Interval.End, Regime: res.Regime,
	})

	if r.opts.ExecuteNumeric {
		if err := r.executeNumeric(def, inv); err != nil {
			return 0, err
		}
	}
	return res.Interval.End, nil
}

// addCE enters a CE into the Local DAG with a fresh ceState and returns it,
// its ancestors, and the time its dependencies allow it to start: the
// latest of ready and the ancestors' ends.
func (r *Runtime) addCE(label string, accs []dag.Access, ready sim.VirtualTime) (*dag.CE, []*dag.Vertex, sim.VirtualTime) {
	ce := r.graph.NewCE(label, accs, nil)
	*dag.Record[ceState](ce) = ceState{dev: -1, stream: -1}
	ancestors := r.graph.Add(ce)
	for _, a := range ancestors {
		if end := stateOf(a.CE).end; end > ready {
			ready = end
		}
	}
	return ce, ancestors, ready
}

// executeNumeric runs the kernel's host implementation on the arrays'
// buffers.
func (r *Runtime) executeNumeric(def *kernels.Def, inv Invocation) error {
	kargs := make([]kernels.Arg, len(inv.Args))
	for i, v := range inv.Args {
		if v.Arr != nil {
			if v.Arr.Buf == nil {
				return fmt.Errorf("grcuda: array %d has no buffer for numeric execution", v.Arr.ID)
			}
			kargs[i] = kernels.BufArg(v.Arr.Buf)
		} else {
			kargs[i] = kernels.ScalarArg(v.Scalar)
		}
	}
	return def.ExecuteLaunch(inv.Grid, inv.Block, kargs)
}

// pickDevice implements the data-aware device policy: prefer the device
// holding the most argument bytes; break ties toward the device with fewer
// kernels run so cold CEs spread across GPUs.
func (r *Runtime) pickDevice(args []Value) int {
	devs := r.node.Devices()
	best, bestScore, bestKernels := 0, int64(-1), int64(-1)
	for i, d := range devs {
		var score int64
		for _, v := range args {
			if v.Arr != nil {
				score += r.node.ResidentPagesOf(v.Arr.Alloc, i)
			}
		}
		k := d.Stats().KernelsRun
		if score > bestScore || (score == bestScore && (bestKernels == -1 || k < bestKernels)) {
			best, bestScore, bestKernels = i, score, k
		}
	}
	return best
}

// pickStream implements Algorithm 2's stream assignment: a CE with a
// single same-device ancestor reuses that ancestor's stream (FIFO ordering
// replaces an explicit wait event); otherwise it takes the earliest-free
// stream, creating a new one if every stream is still busy at depReady and
// the cap allows.
func (r *Runtime) pickStream(dev int, ancestors []*dag.Vertex, depReady sim.VirtualTime) int {
	if len(ancestors) == 1 {
		if st := stateOf(ancestors[0].CE); st.dev == dev {
			return st.stream
		}
	}
	device := r.node.Device(dev)
	free, idx := device.FreeAt()
	if free > depReady && device.StreamCount() < r.opts.MaxStreamsPerDevice {
		return device.NewStream()
	}
	return idx
}

// HostRead simulates the host consuming an array (e.g. printing results):
// a CE that reads the array after all its producers, pulling device pages
// home. Returns when the host copy is consistent.
func (r *Runtime) HostRead(id dag.ArrayID, ready sim.VirtualTime) (sim.VirtualTime, error) {
	return r.hostOp(id, memmodel.Read, ready)
}

// HostWrite simulates the host (re)initializing an array: device copies
// become stale and the host copy is the only valid one.
func (r *Runtime) HostWrite(id dag.ArrayID, ready sim.VirtualTime) (sim.VirtualTime, error) {
	return r.hostOp(id, memmodel.Write, ready)
}

func (r *Runtime) hostOp(id dag.ArrayID, mode memmodel.AccessMode, ready sim.VirtualTime) (sim.VirtualTime, error) {
	arr, ok := r.arrays[id]
	if !ok {
		return 0, fmt.Errorf("grcuda: host op on unknown array %d", id)
	}
	label := "host-read"
	if mode.Writes() {
		label = "host-write"
	}
	r.dagAccs = append(r.dagAccs[:0], dag.Access{Array: id, Mode: mode})
	ce, _, depReady := r.addCE(label, r.dagAccs, ready)
	defer r.graph.Complete(ce)
	var end sim.VirtualTime
	if mode.Writes() {
		// Overwrite: stale device pages are dropped, no write-back.
		if err := r.node.Invalidate(arr.Alloc); err != nil {
			return 0, err
		}
		end = depReady
	} else {
		iv, err := r.node.HostTouch(arr.Alloc, mode, 1, depReady)
		if err != nil {
			return 0, err
		}
		end = iv.End
	}
	stateOf(ce).end = end
	if end > r.elapsed {
		r.elapsed = end
	}
	r.records.Push(CERecord{CE: ce.ID, Label: label, Device: -1, Stream: -1,
		Start: depReady, End: end})
	return end, nil
}

// CEEnd reports the completion time of a CE the Local DAG still holds (0 if
// it is unknown or has been retired).
func (r *Runtime) CEEnd(id dag.CEID) sim.VirtualTime {
	if v := r.graph.Vertex(id); v != nil {
		return stateOf(v.CE).end
	}
	return 0
}

// BuildKernel compiles a mini-CUDA kernel from source (the NVRTC path of
// GrCUDA's buildkernel) and registers it with the runtime. Repeated builds
// of the same source resolve through the registry's source cache — and,
// below it, minicuda's compiled-program cache — without recompiling.
func (r *Runtime) BuildKernel(src, signature string) (*kernels.Def, error) {
	key := minicuda.CacheKey(src, signature)
	if name, ok := r.reg.CachedSource(key); ok {
		if def, ok := r.reg.Lookup(name); ok {
			return def, nil
		}
	}
	compiled, err := minicuda.Compile(src, signature)
	if err != nil {
		return nil, err
	}
	def, err := r.reg.LookupOrRegister(compiled)
	if err != nil {
		return nil, err
	}
	r.reg.CacheSource(key, def.Name)
	return def, nil
}

// ArrayCount reports how many arrays the runtime currently manages.
func (r *Runtime) ArrayCount() int { return len(r.arrays) }

// Advise applies a cudaMemAdvise-style hint to an array (the manual
// hand-tuning path of paper §II-A). preferredDevice is used by
// AdvisePreferredLocation.
func (r *Runtime) Advise(id dag.ArrayID, adv gpusim.Advise, preferredDevice int) error {
	arr, ok := r.arrays[id]
	if !ok {
		return fmt.Errorf("grcuda: advise on unknown array %d", id)
	}
	return r.node.SetAdvise(arr.Alloc, adv, preferredDevice)
}

// Prefetch issues a cudaMemPrefetchAsync-style bulk migration of the
// array to a device, overlapping with other work. Returns its completion
// time.
func (r *Runtime) Prefetch(id dag.ArrayID, device int, ready sim.VirtualTime) (sim.VirtualTime, error) {
	arr, ok := r.arrays[id]
	if !ok {
		return 0, fmt.Errorf("grcuda: prefetch of unknown array %d", id)
	}
	iv, err := r.node.Prefetch(arr.Alloc, device, ready)
	if err != nil {
		return 0, err
	}
	if iv.End > r.elapsed {
		r.elapsed = iv.End
	}
	return iv.End, nil
}
