package minicuda

import (
	"math"
	"strings"
	"testing"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

const deviceFuncSrc = `
__device__ float cnd(float d) {
    return 0.5 * erfcf((0.0 - d) / sqrtf(2.0));
}

__device__ float payoff(float s, float k) {
    return fmaxf(s - k, 0.0);
}

extern "C" __global__ void priceish(float *out, const float *spot, float strike, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        out[i] = payoff(spot[i], strike) + cnd(spot[i] / strike - 1.0);
    }
}`

func TestDeviceFunctions(t *testing.T) {
	def := compile(t, deviceFuncSrc, "")
	const n = 64
	out := kernels.NewBuffer(memmodel.Float32, n)
	spot := kernels.NewBuffer(memmodel.Float32, n)
	for i := 0; i < n; i++ {
		spot.Set(i, 80+float64(i))
	}
	if err := def.ExecuteLaunch(2, 32, []kernels.Arg{
		kernels.BufArg(out), kernels.BufArg(spot),
		kernels.ScalarArg(100), kernels.ScalarArg(n)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := spot.At(i)
		want := math.Max(s-100, 0) + 0.5*math.Erfc(-(s/100-1)/math.Sqrt2)
		if math.Abs(out.At(i)-want) > 1e-4 {
			t.Fatalf("out[%d] = %v, want %v", i, out.At(i), want)
		}
	}
}

func TestDeviceFunctionChains(t *testing.T) {
	src := `
__device__ float twice(float x) {
    return 2.0 * x;
}
__device__ float quad(float x) {
    return twice(twice(x));
}
__global__ void apply(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = quad((float) i); }
}`
	def := compile(t, src, "")
	y := kernels.NewBuffer(memmodel.Float32, 8)
	if err := def.ExecuteLaunch(1, 8, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(8)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if y.At(i) != 4*float64(i) {
			t.Fatalf("y[%d] = %v, want %v", i, y.At(i), 4*i)
		}
	}
}

func TestDeviceFunctionControlFlow(t *testing.T) {
	src := `
__device__ int collatzSteps(int x, int cap) {
    int steps = 0;
    while (x > 1 && steps < cap) {
        if (x % 2 == 0) {
            x = x / 2;
        } else {
            x = 3 * x + 1;
        }
        steps++;
    }
    return steps;
}
__global__ void collatz(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = (float) collatzSteps(i + 1, 100); }
}`
	def := compile(t, src, "")
	y := kernels.NewBuffer(memmodel.Float32, 8)
	if err := def.ExecuteLaunch(1, 8, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(8)}); err != nil {
		t.Fatal(err)
	}
	// Collatz steps for 1..8: 0,1,7,2,5,8,16,3.
	want := []float64{0, 1, 7, 2, 5, 8, 16, 3}
	for i := range want {
		if y.At(i) != want[i] {
			t.Fatalf("collatz(%d) = %v, want %v", i+1, y.At(i), want[i])
		}
	}
}

func TestDeviceFunctionErrors(t *testing.T) {
	cases := map[string]string{
		"recursion": `
__device__ float f(float x) { return f(x - 1.0); }
__global__ void k(float *y, int n) { y[0] = f(3.0); }`,
		"mutual recursion": `
__device__ float f(float x) { return g(x); }
__device__ float g(float x) { return f(x); }
__global__ void k(float *y, int n) { y[0] = f(3.0); }`,
		"pointer param": `
__device__ float f(float *x) { return x[0]; }
__global__ void k(float *y, int n) { y[0] = 1.0; }`,
		"duplicate": `
__device__ float f(float x) { return x; }
__device__ float f(float x) { return x; }
__global__ void k(float *y, int n) { y[0] = 1.0; }`,
		"void return type": `
__device__ void f(float x) { return; }
__global__ void k(float *y, int n) { y[0] = 1.0; }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: parse succeeded", name)
		}
	}
}

func TestDeviceFunctionRuntimeErrors(t *testing.T) {
	// Falling off the end of a __device__ function is a runtime error.
	src := `
__device__ float f(float x) {
    if (x > 0.0) { return x; }
    x = x + 1.0;
}
__global__ void k(float *y, int n) {
    y[0] = f(0.0 - 1.0);
}`
	def := compile(t, src, "")
	y := kernels.NewBuffer(memmodel.Float32, 1)
	err := def.ExecuteLaunch(1, 1, []kernels.Arg{kernels.BufArg(y), kernels.ScalarArg(1)})
	if err == nil || !strings.Contains(err.Error(), "without returning") {
		t.Fatalf("missing-return not caught: %v", err)
	}
	// Arity mismatch at the call site.
	src2 := `
__device__ float f(float x) { return x; }
__global__ void k(float *y, int n) { y[0] = f(1.0, 2.0); }`
	def2 := compile(t, src2, "")
	if err := def2.ExecuteLaunch(1, 1, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(1)}); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
	// return-with-value inside a kernel body.
	src3 := `__global__ void k(float *y, int n) { return 3.0; }`
	def3 := compile(t, src3, "")
	if err := def3.ExecuteLaunch(1, 1, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(1)}); err == nil {
		t.Fatalf("value return from kernel accepted")
	}
}

func TestDeviceFunctionScoping(t *testing.T) {
	// A helper's local named like a kernel parameter must not leak.
	src := `
__device__ float f(float n) {
    float acc = n * 2.0;
    return acc;
}
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = f((float) i) + (float) n; }
}`
	def := compile(t, src, "")
	y := kernels.NewBuffer(memmodel.Float32, 4)
	if err := def.ExecuteLaunch(1, 4, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if want := 2*float64(i) + 4; y.At(i) != want {
			t.Fatalf("y[%d] = %v, want %v", i, y.At(i), want)
		}
	}
}

func TestDeviceFunctionCostAndAccess(t *testing.T) {
	def := compile(t, deviceFuncSrc, "")
	// Cost must include the helper bodies (more than a bare elementwise op).
	cost := def.CostLaunch(4, 64, []kernels.ArgMeta{
		{IsBuffer: true, Len: 256}, {IsBuffer: true, Len: 256},
		{Scalar: 100}, {Scalar: 256}})
	if cost.OpsPerElement < 10 {
		t.Fatalf("ops/element = %v, want >= 10 (helpers inlined)", cost.OpsPerElement)
	}
	// spot[i] with i linear stays sequential even though the value feeds
	// helpers.
	accs := def.Access(nil)
	if accs[1].Pattern != memmodel.Sequential {
		t.Fatalf("spot pattern = %v, want sequential", accs[1].Pattern)
	}
}

// The call-classification fix: a math function OF the thread id used as an
// index is no longer linear, but it is not data-dependent either.
func TestNonlinearIndexClassification(t *testing.T) {
	src := `
__global__ void scatterish(float *out, const float *in, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int j = (int) fabsf((float)(i * i % n));
        out[i] = in[j];
    }
}`
	def := compile(t, src, "")
	accs := def.Access(nil)
	if accs[1].Pattern != memmodel.Strided {
		t.Fatalf("nonlinear index pattern = %v, want strided", accs[1].Pattern)
	}
}

func TestBreakAndContinue(t *testing.T) {
	src := `
__global__ void countodd(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int count = 0;
        for (int j = 0; j < 100; j++) {
            if (j >= i) {
                break;
            }
            if (j % 2 == 0) {
                continue;
            }
            count++;
        }
        y[i] = (float) count;
    }
}`
	def := compile(t, src, "")
	y := kernels.NewBuffer(memmodel.Float32, 8)
	if err := def.ExecuteLaunch(1, 8, []kernels.Arg{
		kernels.BufArg(y), kernels.ScalarArg(8)}); err != nil {
		t.Fatal(err)
	}
	// Odd j's strictly below i: floor(i/2).
	for i := 0; i < 8; i++ {
		if y.At(i) != float64(i/2) {
			t.Fatalf("y[%d] = %v, want %v", i, y.At(i), i/2)
		}
	}
}

func TestBreakInWhile(t *testing.T) {
	src := `
__global__ void findfirst(float *y, const float *x, float target, int n) {
    int i = 0;
    while (i < n) {
        if (x[i] == target) {
            break;
        }
        i++;
    }
    y[0] = (float) i;
}`
	def := compile(t, src, "")
	x := kernels.NewBuffer(memmodel.Float32, 8)
	x.Set(5, 42)
	y := kernels.NewBuffer(memmodel.Float32, 1)
	if err := def.ExecuteLaunch(1, 1, []kernels.Arg{
		kernels.BufArg(y), kernels.BufArg(x), kernels.ScalarArg(42), kernels.ScalarArg(8)}); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 5 {
		t.Fatalf("findfirst = %v, want 5", y.At(0))
	}
}

func TestBreakOutsideLoopRejected(t *testing.T) {
	for _, src := range []string{
		`__global__ void k(float *y, int n) { break; }`,
		`__global__ void k(float *y, int n) { continue; }`,
		`__device__ float f(float x) { break; return x; }
__global__ void k(float *y, int n) { y[0] = f(1.0); }`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
	// break inside a loop inside a device function is fine.
	ok := `
__device__ float f(float x) {
    while (x > 0.0) { break; }
    return x;
}
__global__ void k(float *y, int n) { y[0] = f(1.0); }`
	if _, err := Parse(ok); err != nil {
		t.Fatalf("valid device-function break rejected: %v", err)
	}
}

// TestOpsEstimateAllocFree: the estimate of a kernel that calls a
// __device__ helper inside a loop bounded by a scalar parameter follows
// that bound into the helper, is worked out again for every launch —
// walking the helper without any per-kernel scratch, so a shared Def can
// be priced from many goroutines — and allocates nothing doing so.
func TestOpsEstimateAllocFree(t *testing.T) {
	def := compile(t, `
__device__ float horner(float x, int terms) {
    float s = 0.0;
    for (int j = 0; j < terms; j++) {
        s = s * x + 1.0;
    }
    return s;
}
__global__ void series(float *y, const float *x, int terms, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float acc = 0.0;
        for (int k = 0; k < terms; k++) {
            acc = acc + horner(x[i], terms);
        }
        y[i] = acc;
    }
}`, "")
	metas := func(terms float64) []kernels.ArgMeta {
		return []kernels.ArgMeta{{IsBuffer: true, Len: 64}, {IsBuffer: true, Len: 64},
			{Scalar: terms}, {Scalar: 64}}
	}
	m4, m8 := metas(4), metas(8)
	c4, c8 := def.CostLaunch(1, 64, m4).OpsPerElement, def.CostLaunch(1, 64, m8).OpsPerElement
	// terms loops over a helper that loops terms times: quadratic.
	if c8 <= 3*c4 {
		t.Fatalf("ops per element %v at terms=4, %v at terms=8: the helper's loop bound was not followed", c4, c8)
	}
	if a := testing.AllocsPerRun(100, func() { def.CostLaunch(1, 64, m8) }); a != 0 {
		t.Fatalf("pricing a launch allocates %v times", a)
	}
}
