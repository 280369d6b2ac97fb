package minicuda

import (
	"fmt"
	"runtime"
	"sync"

	"grout/internal/kernels"
)

// env is the execution state of one grid partition: a flat register file
// holding the kernel frame at [0, nslots) plus pushed __device__ frames,
// the thread coordinates of the thread currently running, and the
// per-thread step budget. One env is private to one executor goroutine;
// the only state shared between partitions is the argument buffers, and
// the parallel-safety analysis (lower.go) guarantees those are touched
// without conflicts.
type env struct {
	// views holds each pointer argument's typed element slice, indexed
	// like the parameters.
	views []view
	regs  []value
	base  int

	tid, bid   int
	bdim, gdim int
	// gidf is the precomputed global thread id blockIdx*blockDim+threadIdx
	// as a float64, so the canonical indexing expression is one load.
	gidf float64

	steps    int
	maxSteps int

	retVal value
	// par selects the CAS-based atomicAdd; the serial engine keeps the
	// interpreter's plain read-modify-write (bit-identical arithmetic).
	par bool
}

// step charges one statement against the thread's budget. The panic lives
// in a separate function so step itself stays within the inlining budget —
// it is executed once per statement per thread.
func (e *env) step(pos Pos) {
	e.steps++
	if e.steps > e.maxSteps {
		e.stepFail(pos)
	}
}

//go:noinline
func (e *env) stepFail(pos Pos) {
	panic(errf(pos, "execution exceeded %d steps (infinite loop?)", e.maxSteps))
}

// view is one pointer argument's element storage. validateLaunch pins
// the buffer's kind to the parameter's, so the lowered accessors index
// the one field of that kind and never consult the buffer's Kind.
type view struct {
	f32 []float32
	f64 []float64
	i32 []int32
	i64 []int64
}

// seedEntry reseeds one scalar-parameter slot at each thread start:
// scalar-parameter assignments are thread-local, as in CUDA, so every
// thread begins from the launch arguments.
type seedEntry struct {
	slot int
	v    value
}

// launch executes the program over a 1-D grid, partitioning contiguous
// block ranges across workers when the kernel is provably safe to run
// concurrently. Serial execution (and each worker's own range) visits
// threads in exactly the interpreter's order, so results are
// deterministic; with atomics the launch stays serial unless the adds are
// order-insensitive (integer) or the caller opts into RelaxedAtomics.
func (p *program) launch(grid, block int, args []kernels.Arg, opts EngineOpts) error {
	k := p.k
	if err := validateLaunch(k, grid, block, args); err != nil {
		return err
	}
	maxSteps := opts.MaxThreadSteps
	if maxSteps <= 0 {
		maxSteps = maxThreadSteps
	}
	var seeds []seedEntry
	for i, slot := range p.scalarSlot {
		if slot >= 0 {
			seeds = append(seeds, seedEntry{slot: slot, v: value{f: args[i].Scalar, isInt: p.scalarInt[i]}})
		}
	}

	workers := p.workers(grid, opts)
	if workers <= 1 {
		if err := p.runBlocks(0, grid, grid, block, args, seeds, maxSteps, false); err != nil {
			return fmt.Errorf("minicuda: %s: %w", k.Name, err)
		}
		return nil
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * grid / workers
		hi := (w + 1) * grid / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			errs[w] = p.runBlocks(lo, hi, grid, block, args, seeds, maxSteps, true)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("minicuda: %s: %w", k.Name, err)
		}
	}
	return nil
}

// workers picks the partition count for a launch. Workers==1 forces the
// serial engine; 0 means GOMAXPROCS. Unsafe kernels always run serial, as
// do order-sensitive atomic accumulations unless RelaxedAtomics is set.
func (p *program) workers(grid int, opts EngineOpts) int {
	w := opts.Workers
	if w == 1 {
		return 1
	}
	if !p.parallelSafe {
		return 1
	}
	if p.orderSensitive() && !opts.RelaxedAtomics {
		return 1
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > grid {
		w = grid
	}
	if w < 1 {
		w = 1
	}
	return w
}

// orderSensitive reports whether concurrent atomicAdd interleavings could
// change the numeric result (see program.atomicsCommute).
func (p *program) orderSensitive() bool {
	return p.hasAtomic && !p.atomicsCommute
}

// runBlocks executes the contiguous block range [b0, b1) on one goroutine,
// visiting threads in grid order. Runtime errors arrive as *Error panics
// from the compiled closures.
func (p *program) runBlocks(b0, b1, grid, block int, args []kernels.Arg, seeds []seedEntry, maxSteps int, par bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*Error); ok {
				err = pe
				return
			}
			panic(r)
		}
	}()
	views := make([]view, len(args))
	for i, a := range args {
		if b := a.Buf; b != nil {
			views[i] = view{f32: b.F32, f64: b.F64, i32: b.I32, i64: b.I64}
		}
	}
	e := &env{
		views:    views,
		regs:     make([]value, p.nslots, p.nslots+16),
		bdim:     block,
		gdim:     grid,
		maxSteps: maxSteps,
		par:      par,
	}
	for b := b0; b < b1; b++ {
		e.bid = b
		base := b * block
		for t := 0; t < block; t++ {
			e.tid = t
			e.gidf = float64(base + t)
			e.steps = 0
			for _, s := range seeds {
				e.regs[s.slot] = s.v
			}
			runStmts(e, p.body)
		}
	}
	return nil
}
