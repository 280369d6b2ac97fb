package minicuda

// Tests for the slot-compiled execution engine: bit-for-bit agreement with
// the reference interpreter, the parallel grid executor and its safety
// analysis, the per-thread step budget, the launch-size guard, and the
// compiled-kernel cache.

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// diffArgs builds deterministic launch arguments for a kernel: buffers of
// length n filled with a mix of signs and magnitudes, scalars set to n so
// guard conditions like (i < n) bite.
func diffArgs(k *Kernel, n int) []kernels.Arg {
	args := make([]kernels.Arg, len(k.Params))
	for i, prm := range k.Params {
		if !prm.Pointer {
			args[i] = kernels.ScalarArg(float64(n))
			continue
		}
		buf := kernels.NewBuffer(prm.Kind, n)
		for j := 0; j < n; j++ {
			if kindIsInt(prm.Kind) {
				buf.Set(j, float64(j%7-3))
			} else {
				buf.Set(j, float64(j)*0.37-3.1)
			}
		}
		args[i] = kernels.BufArg(buf)
	}
	return args
}

func cloneArgs(args []kernels.Arg) []kernels.Arg {
	out := make([]kernels.Arg, len(args))
	for i, a := range args {
		out[i] = a
		if a.Buf != nil {
			out[i].Buf = a.Buf.Clone()
		}
	}
	return out
}

// buffersBitEqual compares two argument lists element-for-element at the
// bit level (NaNs compare equal to NaNs).
func buffersBitEqual(t *testing.T, name string, a, b []kernels.Arg) {
	t.Helper()
	for i := range a {
		if a[i].Buf == nil {
			continue
		}
		x, y := a[i].Buf, b[i].Buf
		for j := 0; j < x.Len(); j++ {
			xv, yv := x.At(j), y.At(j)
			if math.Float64bits(xv) == math.Float64bits(yv) {
				continue
			}
			if math.IsNaN(xv) && math.IsNaN(yv) {
				continue
			}
			t.Fatalf("%s: param %d element %d differs: interp %v (bits %x) vs compiled %v (bits %x)",
				name, i, j, xv, math.Float64bits(xv), yv, math.Float64bits(yv))
		}
	}
}

// runDifferential executes one kernel on both engines and fails the test
// on any divergence: error presence, error text, or buffer bits. When the
// kernel is provably parallel-safe and order-insensitive it additionally
// checks that a 4-way partitioned run is bit-identical to the serial one.
func runDifferential(t *testing.T, k *Kernel, grid, block, n, maxSteps int) {
	t.Helper()
	prog, perr := lowerProgram(k)
	if perr != nil {
		// Not lowerable: Def construction falls back to the interpreter;
		// nothing to compare.
		return
	}
	base := diffArgs(k, n)

	argsI := cloneArgs(base)
	errI := runLaunch(k, grid, block, argsI, maxSteps)

	argsC := cloneArgs(base)
	errC := prog.launch(grid, block, argsC, engineOpts{workers: 1, maxSteps: maxSteps})

	if (errI == nil) != (errC == nil) {
		t.Fatalf("%s: engines disagree on failure: interp=%v compiled=%v", k.Name, errI, errC)
	}
	if errI != nil {
		if errI.Error() != errC.Error() {
			t.Fatalf("%s: error text differs:\ninterp:   %v\ncompiled: %v", k.Name, errI, errC)
		}
		return
	}
	buffersBitEqual(t, k.Name, argsI, argsC)

	if prog.parallelSafe && !prog.orderSensitive() {
		argsP := cloneArgs(base)
		if err := prog.launch(grid, block, argsP, engineOpts{workers: 4, maxSteps: maxSteps}); err != nil {
			t.Fatalf("%s: parallel run failed: %v", k.Name, err)
		}
		buffersBitEqual(t, k.Name+" (parallel)", argsI, argsP)
	}
}

func diffSource(t *testing.T, src string, grid, block, n int) {
	t.Helper()
	ks, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, k := range ks {
		runDifferential(t, k, grid, block, n, 200_000)
	}
}

func TestEngineDifferentialSuite(t *testing.T) {
	for name, src := range map[string]string{
		"saxpy":  saxpySrc,
		"gemv":   suiteGemvSrc,
		"bs":     suiteBSSrc,
		"axpys":  suiteAxpySSrc,
		"spmv":   suiteSpmvSrc,
		"device": deviceFuncSrc,
	} {
		t.Run(name, func(t *testing.T) { diffSource(t, src, 4, 8, 32) })
	}
}

func TestEngineDifferentialTricky(t *testing.T) {
	cases := map[string]string{
		"compound_index": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] += (float)(i % 3); y[i] *= 2.0; y[n - 1 - i] -= 0.5; }
}`,
		"scalar_param_assign": `
__global__ void k(float *y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    a = a * 0.5 + (float)i;
    if (i < n) { y[i] = a; }
}`,
		"int_semantics": `
__global__ void k(int *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int a = i * 7 - n;
        int b = (a / 3) + (a % 5);
        y[i] = b / (1 + i) + (i == 0 ? 42 : ~b);
    }
}`,
		"float32_rounding": `
__global__ void k(float *y, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float acc = 0.0;
        for (int j = 0; j <= i; j++) { acc += x[j] * 1.0001; }
        y[i] = acc;
    }
}`,
		"builtins_yz": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x + threadIdx.y * 100 + blockIdx.z;
    if (i < n) { y[i] = (float)(blockDim.y + gridDim.z + gridDim.x * 1000); }
}`,
		"while_break_continue": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int j = 0;
    float s = 0.0;
    while (1) {
        j++;
        if (j > n) { break; }
        if (j % 2 == 0) { continue; }
        s += (float)j;
    }
    if (i < n) { y[i] = s; }
}`,
		"atomic_int": `
__global__ void k(int *hist, const int *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int b = x[i] % 4;
        if (b < 0) { b = 0 - b; }
        atomicAdd(&hist[b], 1);
    }
}`,
		"atomic_float": `
__global__ void k(float *sum, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { atomicAdd(&sum[0], x[i] * x[i]); }
}`,
		"oob_error": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    y[i + n] = 1.0;
}`,
		"div_zero_error": `
__global__ void k(int *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = n / (i - 2); }
}`,
		"mod_float_error": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i >= n) { return; }
    y[i] = (float)(i % 2);
    if (i == 3) { y[i] = y[i] % 2.0; }
}`,
		"const_fold_error_guarded": `
__global__ void k(int *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < 0) { y[i] = 1 / 0; }
    if (i < n) { y[i] = 7 / 2 + 10 % 3; }
}`,
		"cond_decl_then_read": `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float v = 0.0;
        if (i % 2 == 0) { v = 1.5; } else { v = 0.5; }
        y[i] = v;
    }
}`,
		"nonsafe_reverse": `
__global__ void k(float *y, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[n - 1 - i] = x[i]; }
}`,
		// Duplicate __device__ parameter names share one variable in the
		// interpreter's per-frame map (last argument wins); the compiled
		// frame must map both arguments onto the same slot rather than
		// overrun the frame (found by FuzzDifferential).
		"dup_device_params": `
__device__ float pick(float a, float a) { return a + 1.0; }
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = pick(3.0, i * 1.0); }
}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { diffSource(t, src, 4, 8, 32) })
	}
}

// TestShadowedParamFallsBack: a kernel-body declaration shadowing a
// parameter is one of the dynamic-scoping corners the lowerer rejects; the
// Def must transparently fall back to the interpreter and keep the
// interpreter's semantics (param read before the shadowing declaration,
// local read after).
func TestShadowedParamFallsBack(t *testing.T) {
	src := `
__global__ void shadow(float *y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float before = a;
    float a = 2.0;
    if (i < n) { y[i] = before * 100.0 + a; }
}`
	ks, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, perr := lowerProgram(ks[0]); perr == nil {
		t.Fatalf("shadowing kernel unexpectedly lowered")
	} else if !strings.Contains(perr.Error(), "shadows parameter") {
		t.Fatalf("unexpected bail reason: %v", perr)
	}
	def, err := Compile(src, "")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	y := kernels.NewBuffer(memmodel.Float32, 4)
	if err := def.ExecuteLaunch(1, 4, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(3), kernels.ScalarArg(4)}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if y.At(0) != 302 {
		t.Fatalf("shadow semantics broken: got %v, want 302", y.At(0))
	}
}

// TestPerThreadStepBudget is the regression test for the shared-budget
// bug: the 5M-step budget is per thread, so a launch whose total statement
// count far exceeds it — but whose every thread stays well under — must
// succeed on both engines.
func TestPerThreadStepBudget(t *testing.T) {
	src := `
__global__ void busy(float *y, int iters) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0;
    for (int j = 0; j < iters; j++) { s += 1.0; }
    y[i] = s;
}`
	// 64 blocks x 32 threads x ~3000 steps/thread ≈ 19M total statements,
	// nearly 4x the per-thread budget of 5M.
	grid, block, iters := 64, 32, 1000
	for _, engine := range []engineKind{engineCompiled, engineInterp} {
		def, err := compileUncached(src, "", engineOpts{engine: engine})
		if err != nil {
			t.Fatalf("compile (engine %d): %v", engine, err)
		}
		y := kernels.NewBuffer(memmodel.Float32, grid*block)
		if err := def.ExecuteLaunch(grid, block, []kernels.Arg{
			kernels.BufArg(y), kernels.ScalarArg(float64(iters))}); err != nil {
			t.Fatalf("engine %d: per-thread budget regressed to per-launch: %v", engine, err)
		}
		if y.At(grid*block-1) != float64(iters) {
			t.Fatalf("engine %d: wrong result %v", engine, y.At(grid*block-1))
		}
	}
}

// TestInfiniteLoopStillGuarded: the per-thread reset must not disable the
// guard for genuinely runaway threads (also covered by the seed test; kept
// here for the compiled engine explicitly).
func TestInfiniteLoopStillGuardedCompiled(t *testing.T) {
	src := `
__global__ void spin(float *y, int n) {
    int i = 0;
    while (n >= 0) { i++; }
    y[0] = (float) i;
}`
	def, err := compileUncached(src, "", engineOpts{engine: engineCompiled})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	y := kernels.NewBuffer(memmodel.Float32, 1)
	err = def.ExecuteLaunch(1, 1, []kernels.Arg{kernels.BufArg(y), kernels.ScalarArg(1)})
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("runaway thread not caught: %v", err)
	}
}

func TestLaunchTooLarge(t *testing.T) {
	for _, engine := range []engineKind{engineCompiled, engineInterp} {
		def, err := compileUncached(saxpySrc, "", engineOpts{engine: engine})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		y := kernels.NewBuffer(memmodel.Float32, 4)
		x := kernels.NewBuffer(memmodel.Float32, 4)
		args := []kernels.Arg{kernels.BufArg(y), kernels.BufArg(x),
			kernels.ScalarArg(1), kernels.ScalarArg(4)}
		err = def.ExecuteLaunch(70000, 70000, args)
		if err == nil {
			t.Fatalf("engine %d: 4.9e9-thread launch accepted", engine)
		}
		if !errors.Is(err, ErrLaunchTooLarge) {
			t.Fatalf("engine %d: want ErrLaunchTooLarge, got %v", engine, err)
		}
	}
}

const contendedIntSrc = `
__global__ void count(int *out, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { atomicAdd(&out[0], 1); }
}`

const contendedFloatSrc = `
__global__ void fsum(float *out, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { atomicAdd(&out[0], x[i]); }
}`

// TestAtomicAddParallelInt: a many-block contended integer accumulation
// under the parallel executor is exact (run with -race in CI).
func TestAtomicAddParallelInt(t *testing.T) {
	def, err := compileUncached(contendedIntSrc, "", engineOpts{engine: engineCompiled, workers: 8})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	grid, block := 64, 64
	out := kernels.NewBuffer(memmodel.Int32, 1)
	if err := def.ExecuteLaunch(grid, block, []kernels.Arg{
		kernels.BufArg(out), kernels.ScalarArg(float64(grid * block))}); err != nil {
		t.Fatalf("launch: %v", err)
	}
	if got := out.At(0); got != float64(grid*block) {
		t.Fatalf("contended int sum: got %v, want %d", got, grid*block)
	}
}

// TestAtomicAddParallelFloat: float accumulation under relaxedAtomics
// matches the serial sum within reassociation tolerance.
func TestAtomicAddParallelFloat(t *testing.T) {
	grid, block := 32, 32
	n := grid * block
	x := kernels.NewBuffer(memmodel.Float32, n)
	var serial float64
	for i := 0; i < n; i++ {
		x.Set(i, float64(i%17)*0.25-1)
	}

	serialOut := kernels.NewBuffer(memmodel.Float32, 1)
	defSerial, err := compileUncached(contendedFloatSrc, "", engineOpts{engine: engineCompiled, workers: 1})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := defSerial.ExecuteLaunch(grid, block, []kernels.Arg{
		kernels.BufArg(serialOut), kernels.BufArg(x), kernels.ScalarArg(float64(n))}); err != nil {
		t.Fatalf("serial launch: %v", err)
	}
	serial = serialOut.At(0)

	defPar, err := compileUncached(contendedFloatSrc, "", engineOpts{
		engine: engineCompiled, workers: 8, relaxedAtomics: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	parOut := kernels.NewBuffer(memmodel.Float32, 1)
	if err := defPar.ExecuteLaunch(grid, block, []kernels.Arg{
		kernels.BufArg(parOut), kernels.BufArg(x), kernels.ScalarArg(float64(n))}); err != nil {
		t.Fatalf("parallel launch: %v", err)
	}
	if diff := math.Abs(parOut.At(0) - serial); diff > 1e-2*math.Max(1, math.Abs(serial)) {
		t.Fatalf("relaxed float sum too far off: parallel %v vs serial %v", parOut.At(0), serial)
	}
}

// TestFloatAtomicsDefaultSerial: without relaxedAtomics an order-sensitive
// accumulation must run on one worker so results stay deterministic.
func TestFloatAtomicsDefaultSerial(t *testing.T) {
	ks, err := Parse(contendedFloatSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, perr := lowerProgram(ks[0])
	if perr != nil {
		t.Fatalf("lower: %v", perr)
	}
	if !prog.parallelSafe || !prog.hasAtomic {
		t.Fatalf("analysis wrong: safe=%v atomic=%v", prog.parallelSafe, prog.hasAtomic)
	}
	if !prog.orderSensitive() {
		t.Fatalf("float accumulation not flagged order-sensitive")
	}
	if w := prog.workers(32, engineOpts{}); w != 1 {
		t.Fatalf("order-sensitive kernel got %d workers, want 1", w)
	}
	if w := prog.workers(32, engineOpts{workers: 8, relaxedAtomics: true}); w != 8 {
		t.Fatalf("relaxed atomics ignored: got %d workers", w)
	}
}

// TestUnsafeKernelStaysSerial: writes at a non-global-id index defeat the
// safety proof, so the launch must not be partitioned.
func TestUnsafeKernelStaysSerial(t *testing.T) {
	src := `
__global__ void rev(float *y, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[n - 1 - i] = x[i]; }
}`
	ks, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, perr := lowerProgram(ks[0])
	if perr != nil {
		t.Fatalf("lower: %v", perr)
	}
	if prog.parallelSafe {
		t.Fatalf("reverse-scatter kernel wrongly proven parallel-safe")
	}
	if w := prog.workers(32, engineOpts{workers: 8}); w != 1 {
		t.Fatalf("unsafe kernel got %d workers, want 1", w)
	}
}

// TestGidAliasRecognized: the canonical int i = blockIdx.x*blockDim.x +
// threadIdx.x alias makes gid-indexed accesses provably private per
// thread.
func TestGidAliasRecognized(t *testing.T) {
	ks, err := Parse(saxpySrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, perr := lowerProgram(ks[0])
	if perr != nil {
		t.Fatalf("lower: %v", perr)
	}
	if !prog.parallelSafe {
		t.Fatalf("saxpy not proven parallel-safe")
	}
	if w := prog.workers(1024, engineOpts{}); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS (%d)", w, runtime.GOMAXPROCS(0))
	}
}

// TestCompileCacheHit asserts the acceptance criterion directly: a second
// Compile of the same (source, signature) does zero front-end work — no
// lex, no parse, no check, no lowering — and returns the identical Def.
func TestCompileCacheHit(t *testing.T) {
	FlushCompileCache()
	sig := "pointer float, const pointer float, float, sint32"
	d1, err := Compile(saxpySrc, sig)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	hits0, _, frontend0 := CompileStats()
	d2, err := Compile(saxpySrc, sig)
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	hits1, _, frontend1 := CompileStats()
	if d1 != d2 {
		t.Fatalf("cache hit returned a different Def")
	}
	if frontend1 != frontend0 {
		t.Fatalf("cache hit ran the front end (%d -> %d runs)", frontend0, frontend1)
	}
	if hits1 != hits0+1 {
		t.Fatalf("cache hit not counted: %d -> %d", hits0, hits1)
	}
	// A different signature is a different kernel build.
	_, _, frontendBefore := CompileStats()
	if _, err := Compile(saxpySrc, ""); err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, _, after := CompileStats(); after != frontendBefore+1 {
		t.Fatalf("distinct signature did not recompile")
	}
}

// TestParallelDeterminism: partitioned execution of a safe kernel is
// bit-identical to serial execution, whatever the worker count.
func TestParallelDeterminism(t *testing.T) {
	ks, err := Parse(suiteGemvSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	k := ks[0]
	rows, cols := 37, 11
	mk := func() []kernels.Arg {
		y := kernels.NewBuffer(memmodel.Float32, rows)
		A := kernels.NewBuffer(memmodel.Float32, rows*cols)
		x := kernels.NewBuffer(memmodel.Float32, cols)
		for i := 0; i < rows*cols; i++ {
			A.Set(i, math.Sin(float64(i)))
		}
		for i := 0; i < cols; i++ {
			x.Set(i, math.Cos(float64(i)))
		}
		return []kernels.Arg{kernels.BufArg(y), kernels.BufArg(A), kernels.BufArg(x),
			kernels.ScalarArg(float64(rows)), kernels.ScalarArg(float64(cols))}
	}
	prog, perr := lowerProgram(k)
	if perr != nil {
		t.Fatalf("lower: %v", perr)
	}
	ref := mk()
	if err := prog.launch(5, 8, ref, engineOpts{workers: 1}); err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, workers := range []int{2, 3, 4, 7} {
		got := mk()
		if err := prog.launch(5, 8, got, engineOpts{workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buffersBitEqual(t, "gemv", ref, got)
	}
}
