package minicuda

// FuzzDifferential feeds arbitrary source text through both execution
// engines and asserts bit-for-bit agreement (results, error presence, and
// error text). Inputs that fail to parse or to lower are uninteresting —
// the parser has its own fuzz coverage — so they are skipped; everything
// that compiles on both paths must behave identically.

import "testing"

func FuzzDifferential(f *testing.F) {
	f.Add(saxpySrc)
	f.Add(suiteGemvSrc)
	f.Add(suiteBSSrc)
	f.Add(suiteAxpySSrc)
	f.Add(suiteSpmvSrc)
	f.Add(deviceFuncSrc)
	f.Add(contendedIntSrc)
	f.Add(contendedFloatSrc)
	f.Add(`
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { y[i] = sqrtf(fabsf((float)i - 3.5)) + powf(2.0, (float)(i % 5)); }
}`)
	f.Add(`
__global__ void k(int *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int s = 0;
    for (int j = i; j > 0; j--) { s += j % 3 == 0 ? -j : j; if (s > 50) { break; } }
    if (i < n) { y[i] = s; }
}`)
	for _, uk := range uvmKernels {
		f.Add(uk.src)
	}
	// Counted loop whose body assigns the induction variable.
	f.Add(`
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0;
    for (int j = 0; j < n; j++) { s += (float)j; if (j % 3 == 1) { j = j + 2; } }
    if (i < n) { y[i] = s; }
}`)
	// continue and break inside counted loops, register and constant bounds.
	f.Add(`
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0;
    for (int j = 0; j < n; j++) { if (j % 4 == 0) { continue; } if (j > i + 5) { break; } s -= (float)j; }
    for (int c = 0; c < 9; c++) { if (c == i % 9) { break; } s *= 1.5; }
    if (i < n) { y[i] = s; }
}`)
	// A step-budget overrun inside a counted loop: the error position must
	// match.
	f.Add(`
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int m = n * 1000;
    float s = 0.0;
    for (int j = 0; j < m; j++) { s += 1.0; }
    if (i < n) { y[i] = s; }
}`)
	// Negative fused affine indices, load and store: the error text must
	// match.
	f.Add(`
__global__ void k(float *y, const float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int m = 0 - n;
    if (i > 2) { y[i] = x[i - 3] + x[i + 0 - 1]; }
    y[i * n + m] = 1.0;
}`)
	// && and || chains with atomicAdd operands: short-circuit side effects.
	f.Add(`
__global__ void k(int *c, float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n && i % 2 == 0 && atomicAdd(&c[0], 1) < 10 && atomicAdd(&c[1], 1) >= 0) { y[i] = 1.0; }
    if (i % 3 == 0 || atomicAdd(&c[2], 1) > 5 || 0 || atomicAdd(&c[3], 2) < 0) { y[i] += 2.0; }
    if (1 && i > 4 && 0 && atomicAdd(&c[4], 1) > 0) { y[i] = 0.0 / 0.0; }
}`)
	f.Fuzz(func(t *testing.T, src string) {
		ks, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		if len(ks) > 2 {
			ks = ks[:2]
		}
		for _, k := range ks {
			if len(k.Params) > 8 {
				continue
			}
			runDifferential(t, k, 4, 8, 64, 50_000)
		}
	})
}
