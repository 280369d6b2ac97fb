package kernels

import (
	"fmt"
	"sort"
	"sync"

	"grout/internal/memmodel"
)

// ArgMeta is the scheduler-visible shape of an argument: enough to price a
// launch and derive access patterns without holding real data. Cost-only
// simulations (the benchmark harness) pass metas with no buffers attached.
type ArgMeta struct {
	IsBuffer bool
	// Len is the element count for buffer arguments.
	Len int64
	// Scalar is the value for scalar arguments.
	Scalar float64
}

// MetaOf derives argument metadata from actual arguments.
func MetaOf(args []Arg) []ArgMeta {
	metas := make([]ArgMeta, len(args))
	for i, a := range args {
		if a.Buf != nil {
			metas[i] = ArgMeta{IsBuffer: true, Len: int64(a.Buf.Len())}
		} else {
			metas[i] = ArgMeta{Scalar: a.Scalar}
		}
	}
	return metas
}

// Cost is the abstract execution cost of one launch: the number of logical
// elements processed and the per-element operation count. The GPU
// simulator converts it to time using device throughput.
type Cost struct {
	Elements      int64
	OpsPerElement float64
}

// Def is a kernel definition.
type Def struct {
	// Name is the kernel's registry key (and CUDA symbol name).
	Name string
	// Sig is the parameter signature.
	Sig Signature
	// CostOf prices a launch from argument metadata. If nil, cost
	// defaults to the largest buffer length at 1 op/element.
	CostOf func(meta []ArgMeta) Cost
	// AccessOf describes how each parameter is accessed (indexed like
	// Sig.Params; non-pointer entries are ignored). If nil, pointers
	// default to a full sequential sweep, read-only when Const.
	AccessOf func(meta []ArgMeta) []memmodel.Access
	// Run executes the kernel numerically on host buffers. May be nil
	// for cost-model-only kernels.
	Run func(args []Arg) error
	// RunLaunch executes with an explicit launch configuration.
	// Runtime-compiled kernels (minicuda) set this; native kernels use
	// Run and ignore the configuration.
	RunLaunch func(grid, block int, args []Arg) error
	// CostOfLaunch prices a launch with its configuration; when nil,
	// CostOf (or the default) is used.
	CostOfLaunch func(grid, block int, meta []ArgMeta) Cost
}

// Cost prices a launch, applying the default when CostOf is nil.
func (d *Def) Cost(meta []ArgMeta) Cost {
	if d.CostOf != nil {
		return d.CostOf(meta)
	}
	var max int64
	for _, m := range meta {
		if m.IsBuffer && m.Len > max {
			max = m.Len
		}
	}
	return Cost{Elements: max, OpsPerElement: 1}
}

// Access derives per-parameter access descriptors, applying the default
// when AccessOf is nil. The result is always indexed like Sig.Params
// (AccessOf implementations may return a prefix; it is padded).
func (d *Def) Access(meta []ArgMeta) []memmodel.Access {
	if d.AccessOf != nil {
		accs := d.AccessOf(meta)
		for len(accs) < len(d.Sig.Params) {
			accs = append(accs, memmodel.Access{Param: len(accs)})
		}
		return accs
	}
	out := make([]memmodel.Access, len(d.Sig.Params))
	for i, p := range d.Sig.Params {
		if !p.Pointer {
			continue
		}
		mode := memmodel.ReadWrite
		if p.Const {
			mode = memmodel.Read
		}
		out[i] = memmodel.Access{
			Param: i, Mode: mode, Pattern: memmodel.Sequential, Fraction: 1, Passes: 1,
		}
	}
	return out
}

// CostLaunch prices a launch given its configuration, falling back to the
// configuration-independent cost.
func (d *Def) CostLaunch(grid, block int, meta []ArgMeta) Cost {
	if d.CostOfLaunch != nil {
		return d.CostOfLaunch(grid, block, meta)
	}
	return d.Cost(meta)
}

// Execute validates arguments and runs the kernel numerically.
func (d *Def) Execute(args []Arg) error {
	return d.ExecuteLaunch(1, 1, args)
}

// ExecuteLaunch validates arguments and runs the kernel numerically under
// an explicit launch configuration.
func (d *Def) ExecuteLaunch(grid, block int, args []Arg) error {
	if err := d.Sig.Validate(args); err != nil {
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	if d.RunLaunch != nil {
		return d.RunLaunch(grid, block, args)
	}
	if d.Run == nil {
		return fmt.Errorf("kernels: %s has no numeric implementation", d.Name)
	}
	return d.Run(args)
}

// Registry maps kernel names to definitions. It is safe for concurrent
// use.
type Registry struct {
	mu   sync.RWMutex
	defs map[string]*Def
	// srcCache maps buildkernel cache keys (minicuda.CacheKey over source
	// and signature) to registered kernel names, so a repeated buildkernel
	// of the same source resolves without re-entering the compiler.
	srcCache map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{defs: make(map[string]*Def), srcCache: make(map[string]string)}
}

// CachedSource resolves a buildkernel cache key to the kernel name it
// previously registered.
func (r *Registry) CachedSource(key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.srcCache[key]
	return name, ok
}

// CacheSource records that a buildkernel cache key produced the named
// kernel.
func (r *Registry) CacheSource(key, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.srcCache == nil {
		r.srcCache = make(map[string]string)
	}
	r.srcCache[key] = name
}

// Register adds a definition; re-registering a name is an error (kernels
// are immutable once built).
func (r *Registry) Register(d *Def) error {
	if d.Name == "" {
		return fmt.Errorf("kernels: definition with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[d.Name]; dup {
		return fmt.Errorf("kernels: %q already registered", d.Name)
	}
	r.defs[d.Name] = d
	return nil
}

// LookupOrRegister returns the definition registered under d.Name, adding
// d first if there is none — one atomic step, so any number of builders of
// the same kernel over a shared registry all succeed and all get the same
// definition. A Lookup followed by a Register is not: two builders both
// miss, and the second Register fails.
func (r *Registry) LookupOrRegister(d *Def) (*Def, error) {
	if d.Name == "" {
		return nil, fmt.Errorf("kernels: definition with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.defs[d.Name]; ok {
		return have, nil
	}
	r.defs[d.Name] = d
	return d, nil
}

// Lookup finds a definition by name.
func (r *Registry) Lookup(name string) (*Def, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.defs[name]
	return d, ok
}

// Names returns all registered kernel names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.defs))
	for n := range r.defs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// stdDefs is the native kernel library, built (its signatures parsed) once
// per process. A Def is immutable once built, so every StdRegistry shares
// these read-only; what a registry adds or replaces stays in its own map.
var stdDefs = sync.OnceValue(stdlib)

// StdRegistry returns a fresh registry pre-loaded with the native kernel
// library (the "pre-compiled kernels" path of the paper's buildkernel).
// Registries are independent: a kernel registered in one is absent from
// every other.
func StdRegistry() *Registry {
	defs := stdDefs()
	r := &Registry{defs: make(map[string]*Def, len(defs)), srcCache: make(map[string]string)}
	for _, d := range defs {
		if err := r.Register(d); err != nil {
			panic(err) // stdlib duplicates are a programming error
		}
	}
	return r
}
