// Package polyglot is the reproduction's stand-in for the GraalVM polyglot
// API surface GrOUT exposes (paper §IV-A, Listing 1): host programs obtain
// framework-managed arrays and kernels by evaluating descriptor strings in
// a "language" — GrCUDA for the single-node runtime, GrOUT for the
// scale-out controller. Porting a workload between the two is the paper's
// Listing 2 one-line change: the language name in Eval.
//
//	ctx := polyglot.NewGroutContext(controller)
//	build, _ := ctx.Eval(polyglot.GrOUT, "buildkernel")
//	square, _ := build.Build(kernelSrc, "pointer float, sint32")
//	x, _ := ctx.Eval(polyglot.GrOUT, "float[100]")
//	square.Configure(4, 32).Launch(x.Array, 100)
//	v, _ := x.Array.Get(0)
package polyglot

import (
	"fmt"
	"strconv"
	"strings"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
	"grout/internal/workloads"
)

// Language selects the runtime a descriptor is evaluated against.
type Language string

// The two languages of the paper's evaluation.
const (
	GrCUDA Language = "grcuda"
	GrOUT  Language = "grout"
)

// Context is a polyglot evaluation context bound to one runtime engine.
type Context struct {
	lang    Language
	session workloads.Session
	reg     *kernels.Registry
	build   func(src, signature string) (*kernels.Def, error)
	arrays  map[dag.ArrayID]*DeviceArray
	// rt is set for single-node contexts and enables the manual UVM
	// tuning surface (advise/prefetch, paper §II-A).
	rt *grcuda.Runtime
}

// NewSingleNodeContext binds a context to a GrCUDA single-node runtime.
func NewSingleNodeContext(rt *grcuda.Runtime) *Context {
	return &Context{
		lang:    GrCUDA,
		session: &workloads.SingleNode{RT: rt},
		reg:     rt.Registry(),
		build:   rt.BuildKernel,
		arrays:  make(map[dag.ArrayID]*DeviceArray),
		rt:      rt,
	}
}

// NewGroutContext binds a context to a GrOUT controller.
func NewGroutContext(ctl *core.Controller) *Context {
	return &Context{
		lang:    GrOUT,
		session: &workloads.Grout{Ctl: ctl},
		reg:     ctl.Registry(),
		build:   ctl.BuildKernel,
		arrays:  make(map[dag.ArrayID]*DeviceArray),
	}
}

// Language reports the context's bound language.
func (c *Context) Language() Language { return c.lang }

// Elapsed reports the bound runtime's virtual makespan.
func (c *Context) Elapsed() sim.VirtualTime { return c.session.Elapsed() }

// Value is the result of Eval: a device array, a 2-D device matrix, or a
// kernel builder.
type Value struct {
	Array  *DeviceArray
	Matrix *DeviceMatrix
	Build  *Builder
}

// Eval evaluates a descriptor: either "buildkernel" (returns a Builder) or
// an array constructor like "float[1024]", "int[100]" or "double[4096]".
func (c *Context) Eval(lang Language, code string) (Value, error) {
	if lang != c.lang {
		return Value{}, fmt.Errorf("polyglot: context is bound to %q, not %q (construct the matching context)", c.lang, lang)
	}
	code = strings.TrimSpace(code)
	if code == "buildkernel" {
		return Value{Build: &Builder{ctx: c}}, nil
	}
	kind, dims, err := parseDescriptor(code)
	if err != nil {
		return Value{}, err
	}
	total := int64(1)
	for _, d := range dims {
		total *= d
	}
	id, err := c.session.NewArray(kind, total)
	if err != nil {
		return Value{}, err
	}
	arr := &DeviceArray{ctx: c, id: id, kind: kind, length: total, hostValid: true}
	c.arrays[id] = arr
	if len(dims) == 2 {
		return Value{Matrix: &DeviceMatrix{flat: arr, rows: dims[0], cols: dims[1]}}, nil
	}
	return Value{Array: arr}, nil
}

// DeviceMatrix is a row-major 2-D device array ("float[R][C]" in Eval),
// stored as one flat UVM allocation — GrCUDA's multi-dimensional device
// array surface.
type DeviceMatrix struct {
	flat *DeviceArray
	rows int64
	cols int64
}

// Rows returns the row count.
func (m *DeviceMatrix) Rows() int64 { return m.rows }

// Cols returns the column count.
func (m *DeviceMatrix) Cols() int64 { return m.cols }

// Array returns the flat backing array, usable as a kernel argument
// (kernels receive row-major data plus the dimensions as scalars).
func (m *DeviceMatrix) Array() *DeviceArray { return m.flat }

// Get reads element (i, j) from host code.
func (m *DeviceMatrix) Get(i, j int64) (float64, error) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return 0, fmt.Errorf("polyglot: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols)
	}
	return m.flat.Get(i*m.cols + j)
}

// Set writes element (i, j) from host code.
func (m *DeviceMatrix) Set(i, j int64, v float64) error {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		return fmt.Errorf("polyglot: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols)
	}
	return m.flat.Set(i*m.cols+j, v)
}

// parseDescriptor parses "float[1024]" and "float[2][512]" constructors,
// returning the element kind and the dimension list (one or two entries).
func parseDescriptor(code string) (memmodel.ElemKind, []int64, error) {
	open := strings.IndexByte(code, '[')
	if open < 0 || !strings.HasSuffix(code, "]") {
		return 0, nil, fmt.Errorf("polyglot: unknown descriptor %q (want \"buildkernel\" or \"<type>[<len>]\")", code)
	}
	kindName := strings.TrimSpace(code[:open])
	kind, ok := memmodel.KindFromName(kindName)
	if !ok {
		return 0, nil, fmt.Errorf("polyglot: unknown element type %q", kindName)
	}
	var dims []int64
	rest := strings.TrimSpace(code[open:])
	for rest != "" {
		if rest[0] != '[' {
			return 0, nil, fmt.Errorf("polyglot: malformed descriptor %q", code)
		}
		close := strings.IndexByte(rest, ']')
		if close < 0 {
			return 0, nil, fmt.Errorf("polyglot: malformed descriptor %q", code)
		}
		lenStr := strings.TrimSpace(rest[1:close])
		n, err := strconv.ParseInt(lenStr, 10, 64)
		if err != nil || n <= 0 {
			return 0, nil, fmt.Errorf("polyglot: bad array length %q", lenStr)
		}
		dims = append(dims, n)
		rest = strings.TrimSpace(rest[close+1:])
	}
	if len(dims) == 0 || len(dims) > 2 {
		return 0, nil, fmt.Errorf("polyglot: %d dimensions not supported in %q", len(dims), code)
	}
	return kind, dims, nil
}

// parseArrayDescriptor retains the 1-D entry point used by fuzzing.
func parseArrayDescriptor(code string) (memmodel.ElemKind, int64, error) {
	kind, dims, err := parseDescriptor(code)
	if err != nil {
		return 0, 0, err
	}
	total := int64(1)
	for _, d := range dims {
		total *= d
	}
	return kind, total, nil
}

// DeviceArray is a UVM array exposed to the host language. Host-side reads
// and writes are tracked lazily: element writes become one host-write CE
// when a kernel next consumes the array; element reads trigger one
// host-read CE when the host copy is stale.
type DeviceArray struct {
	ctx       *Context
	id        dag.ArrayID
	kind      memmodel.ElemKind
	length    int64
	hostValid bool
	hostDirty bool
}

// ID returns the framework-wide array ID.
func (a *DeviceArray) ID() dag.ArrayID { return a.id }

// Len returns the element count.
func (a *DeviceArray) Len() int64 { return a.length }

// Kind returns the element kind.
func (a *DeviceArray) Kind() memmodel.ElemKind { return a.kind }

// Set writes element i from host code.
func (a *DeviceArray) Set(i int64, v float64) error {
	if i < 0 || i >= a.length {
		return fmt.Errorf("polyglot: index %d out of range for array of %d", i, a.length)
	}
	buf := a.ctx.session.Buffer(a.id)
	if buf == nil {
		return fmt.Errorf("polyglot: array data is unavailable in cost-model-only mode")
	}
	if !a.hostValid {
		// Read-modify-write: fetch the current contents first.
		if err := a.ctx.session.HostRead(a.id); err != nil {
			return err
		}
		a.hostValid = true
	}
	buf.Set(int(i), v)
	a.hostDirty = true
	return nil
}

// Get reads element i from host code, synchronizing with pending device
// work (the print(x) of paper Listing 1).
func (a *DeviceArray) Get(i int64) (float64, error) {
	if i < 0 || i >= a.length {
		return 0, fmt.Errorf("polyglot: index %d out of range for array of %d", i, a.length)
	}
	buf := a.ctx.session.Buffer(a.id)
	if buf == nil {
		return 0, fmt.Errorf("polyglot: array data is unavailable in cost-model-only mode")
	}
	if !a.hostValid {
		if err := a.ctx.session.HostRead(a.id); err != nil {
			return 0, err
		}
		a.hostValid = true
	}
	return buf.At(int(i)), nil
}

// Free releases the array on every node that holds a replica. Further use
// of the handle fails.
func (a *DeviceArray) Free() error {
	if err := a.ctx.session.Free(a.id); err != nil {
		return err
	}
	delete(a.ctx.arrays, a.id)
	a.hostValid = false
	return nil
}

// flushHostWrites emits the pending host-write CE, making host mutations
// visible to subsequent kernels.
func (a *DeviceArray) flushHostWrites() error {
	if !a.hostDirty {
		return nil
	}
	if err := a.ctx.session.HostWrite(a.id); err != nil {
		return err
	}
	a.hostDirty = false
	a.hostValid = true
	return nil
}

// Builder is the buildkernel function: it compiles mini-CUDA source (the
// NVRTC path) or resolves a pre-registered native kernel.
type Builder struct {
	ctx *Context
}

// Build compiles CUDA-C source with an NFI signature and registers the
// kernel with the bound runtime (and, under GrOUT, with every worker).
func (b *Builder) Build(src, signature string) (*KernelHandle, error) {
	def, err := b.ctx.build(src, signature)
	if err != nil {
		return nil, err
	}
	return &KernelHandle{ctx: b.ctx, def: def}, nil
}

// Prebuilt resolves an already-registered (native) kernel by name — the
// paper's "pre-compiled kernels are also supported" path.
func (b *Builder) Prebuilt(name string) (*KernelHandle, error) {
	def, ok := b.ctx.reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("polyglot: no registered kernel %q", name)
	}
	return &KernelHandle{ctx: b.ctx, def: def}, nil
}

// KernelHandle is a compiled kernel bound to a context.
type KernelHandle struct {
	ctx *Context
	def *kernels.Def
}

// Name returns the kernel's name.
func (k *KernelHandle) Name() string { return k.def.Name }

// Configure sets the launch configuration, mirroring CUDA's
// kernel<<<grid, block>>> (paper: square(GRID_SIZE, BLOCK_SIZE)).
func (k *KernelHandle) Configure(grid, block int) *ConfiguredKernel {
	return &ConfiguredKernel{handle: k, grid: grid, block: block}
}

// ConfiguredKernel is a kernel with its launch configuration applied.
type ConfiguredKernel struct {
	handle      *KernelHandle
	grid, block int
}

// Launch submits the kernel as a CE. Arguments are *DeviceArray for
// pointer parameters and Go numbers for scalars.
func (ck *ConfiguredKernel) Launch(args ...any) error {
	k := ck.handle
	refs := make([]core.ArgRef, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case *DeviceArray:
			if v.ctx != k.ctx {
				return fmt.Errorf("polyglot: argument %d belongs to a different context", i)
			}
			if err := v.flushHostWrites(); err != nil {
				return err
			}
			refs[i] = core.ArrRef(v.id)
		case int:
			refs[i] = core.ScalarRef(float64(v))
		case int64:
			refs[i] = core.ScalarRef(float64(v))
		case float64:
			refs[i] = core.ScalarRef(v)
		case float32:
			refs[i] = core.ScalarRef(float64(v))
		default:
			return fmt.Errorf("polyglot: unsupported argument %d of type %T", i, a)
		}
	}
	if err := k.ctx.session.Launch(k.def.Name, ck.grid, ck.block, refs...); err != nil {
		return err
	}
	// Mark written arrays host-stale.
	metas := make([]kernels.ArgMeta, len(args))
	for i, r := range refs {
		if r.IsArray {
			if arr := k.ctx.arrays[r.Array]; arr != nil {
				metas[i] = kernels.ArgMeta{IsBuffer: true, Len: arr.length}
			}
		} else {
			metas[i] = kernels.ArgMeta{Scalar: r.Scalar}
		}
	}
	accs := k.def.Access(metas)
	for i, r := range refs {
		if !r.IsArray || i >= len(accs) {
			continue
		}
		if accs[i].Mode.Writes() {
			if arr := k.ctx.arrays[r.Array]; arr != nil {
				arr.hostValid = false
			}
		}
	}
	return nil
}

// Advise applies a manual UVM hint to the array (the paper §II-A
// hand-tuning path). Only available on single-node (GrCUDA) contexts:
// under GrOUT, placement is the scheduler's job.
func (a *DeviceArray) Advise(adv gpusim.Advise, preferredDevice int) error {
	if a.ctx.rt == nil {
		return fmt.Errorf("polyglot: memory advise is managed automatically under GrOUT")
	}
	return a.ctx.rt.Advise(a.id, adv, preferredDevice)
}

// Prefetch issues a bulk migration of the array to a device (single-node
// contexts only).
func (a *DeviceArray) Prefetch(device int) error {
	if a.ctx.rt == nil {
		return fmt.Errorf("polyglot: prefetch is managed automatically under GrOUT")
	}
	if err := a.flushHostWrites(); err != nil {
		return err
	}
	_, err := a.ctx.rt.Prefetch(a.id, device, 0)
	return err
}
