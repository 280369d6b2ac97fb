package minicuda

// Tests for the compiled engine's typed element access: the shared launch
// argument check, the canonical-NaN store rule, step accounting in counted
// loops, and per-partition (never per-thread) allocation.

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

func mustLower(t *testing.T, src string) (*Kernel, *program) {
	t.Helper()
	ks, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lowerProgram(ks[0])
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return ks[0], prog
}

// TestLaunchArgumentChecks: both engines refuse a malformed argument list
// before running a thread, with one error text.
func TestLaunchArgumentChecks(t *testing.T) {
	k, prog := mustLower(t, saxpySrc) // saxpy(float *y, const float *x, float a, int n)
	f32 := func() kernels.Arg { return kernels.BufArg(kernels.NewBuffer(memmodel.Float32, 8)) }
	cases := []struct {
		name string
		args []kernels.Arg
		want string
	}{
		{"kind mismatch", []kernels.Arg{f32(), kernels.BufArg(kernels.NewBuffer(memmodel.Int32, 8)),
			kernels.ScalarArg(2), kernels.ScalarArg(8)},
			"minicuda: saxpy: parameter x needs a float array, got int"},
		{"scalar in pointer slot", []kernels.Arg{kernels.ScalarArg(1), f32(), kernels.ScalarArg(2), kernels.ScalarArg(8)},
			"minicuda: saxpy: parameter y needs a device array"},
		{"nil buffer", []kernels.Arg{f32(), {}, kernels.ScalarArg(2), kernels.ScalarArg(8)},
			"minicuda: saxpy: parameter x needs a device array"},
		{"buffer in scalar slot", []kernels.Arg{f32(), f32(), f32(), kernels.ScalarArg(8)},
			"minicuda: saxpy: parameter a is a scalar"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errI := runLaunch(k, 1, 8, tc.args, 0)
			errC := prog.launch(1, 8, tc.args, engineOpts{})
			if errI == nil || errC == nil {
				t.Fatalf("accepted: interp %v, compiled %v", errI, errC)
			}
			if errI.Error() != tc.want || errC.Error() != tc.want {
				t.Fatalf("error text:\ninterp:   %v\ncompiled: %v\nwant:     %s", errI, errC, tc.want)
			}
		})
	}
}

// TestCanonicalNaNStores: every float store — plain, op= on an indexed
// target, serial and partitioned atomicAdd — writes CUDA's canonical quiet
// NaN, on both engines. 0.0/0.0 is the negative default NaN on amd64, so
// an uncanonicalised store would show.
func TestCanonicalNaNStores(t *testing.T) {
	const src = `
__global__ void nan(float *a, double *b, float *c, double *d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i == 0) {
        float z = 0.0;
        a[0] = 0.0 / 0.0;
        b[0] = z / z;
        a[1] = 0.0;
        a[1] += z / z;
        b[1] -= 0.0 / 0.0;
        a[2] = sqrtf(-1.0) * -1.0;
        b[2] = (z / z) + (0.0 / 0.0);
        atomicAdd(&c[0], z / z);
        atomicAdd(&d[0], 0.0 / 0.0);
    }
}`
	const atomicSrc = `
__global__ void nansum(float *c, double *d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float z = 0.0;
    if (i < n) { atomicAdd(&c[0], z / z); atomicAdd(&d[0], 0.0 / 0.0); }
}`
	mk := func(kinds ...memmodel.ElemKind) []kernels.Arg {
		var args []kernels.Arg
		for _, kd := range kinds {
			args = append(args, kernels.BufArg(kernels.NewBuffer(kd, 3)))
		}
		return append(args, kernels.ScalarArg(64))
	}
	check := func(t *testing.T, name string, args []kernels.Arg, n32, n64 int) {
		t.Helper()
		for _, a := range args {
			if a.Buf == nil {
				continue
			}
			for j := 0; j < n32 && j < len(a.Buf.F32); j++ {
				if bits := math.Float32bits(a.Buf.F32[j]); bits != 0x7fffffff {
					t.Errorf("%s: float32 element %d bits %#x, want 0x7fffffff", name, j, bits)
				}
			}
			for j := 0; j < n64 && j < len(a.Buf.F64); j++ {
				if bits := math.Float64bits(a.Buf.F64[j]); bits != 0x7fffffffffffffff {
					t.Errorf("%s: float64 element %d bits %#x, want 0x7fffffffffffffff", name, j, bits)
				}
			}
		}
	}
	k, prog := mustLower(t, src)
	kinds := []memmodel.ElemKind{memmodel.Float32, memmodel.Float64, memmodel.Float32, memmodel.Float64}
	argsI, argsC := mk(kinds...), mk(kinds...)
	if err := runLaunch(k, 2, 4, argsI, 0); err != nil {
		t.Fatal(err)
	}
	if err := prog.launch(2, 4, argsC, engineOpts{workers: 1}); err != nil {
		t.Fatal(err)
	}
	check(t, "interp", argsI[:2], 3, 3)
	check(t, "compiled", argsC[:2], 3, 3)
	check(t, "interp atomic", argsI[2:4], 1, 1)
	check(t, "compiled atomic", argsC[2:4], 1, 1)

	k, prog = mustLower(t, atomicSrc)
	argsI, argsP := mk(memmodel.Float32, memmodel.Float64), mk(memmodel.Float32, memmodel.Float64)
	if err := runLaunch(k, 8, 8, argsI, 0); err != nil {
		t.Fatal(err)
	}
	if err := prog.launch(8, 8, argsP, engineOpts{workers: 4, relaxedAtomics: true}); err != nil {
		t.Fatal(err)
	}
	check(t, "interp sum", argsI, 1, 1)
	check(t, "partitioned sum", argsP, 1, 1)

	// A NaN made from a loaded element (sqrtf of a negative), held in a
	// float local and stored; then read back through fabsf and sqrtf and
	// stored again. Neither store may let a sign or payload through.
	const producerSrc = `
__global__ void k0(float *w, const float *r0, const float *r1, float a, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { float t = (sqrtf(r0[i]) - sqrtf(r0[i])); w[i] = t - (a + r0[i]); }
}`
	const consumerSrc = `
__global__ void k1(float *w, const float *r0, const float *r1, float a, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { float t = sqrtf(fabsf(r0[i])); w[i] = t + r0[i]; }
}`
	kp, progP := mustLower(t, producerSrc)
	kc, progC := mustLower(t, consumerSrc)
	for _, compiled := range []bool{false, true} {
		neg := kernels.NewBuffer(memmodel.Float32, 3)
		for j := 0; j < 3; j++ {
			neg.Set(j, -float64(j+1))
		}
		w0, w1 := kernels.NewBuffer(memmodel.Float32, 3), kernels.NewBuffer(memmodel.Float32, 3)
		argsP := []kernels.Arg{kernels.BufArg(w0), kernels.BufArg(neg), kernels.BufArg(neg),
			kernels.ScalarArg(1.5), kernels.ScalarArg(3)}
		argsC := []kernels.Arg{kernels.BufArg(w1), kernels.BufArg(w0), kernels.BufArg(neg),
			kernels.ScalarArg(-0.5), kernels.ScalarArg(3)}
		name := "interp"
		if compiled {
			name = "compiled"
			if err := progP.launch(1, 4, argsP, engineOpts{workers: 1}); err != nil {
				t.Fatal(err)
			}
			if err := progC.launch(1, 4, argsC, engineOpts{workers: 1}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := runLaunch(kp, 1, 4, argsP, 0); err != nil {
				t.Fatal(err)
			}
			if err := runLaunch(kc, 1, 4, argsC, 0); err != nil {
				t.Fatal(err)
			}
		}
		check(t, name+" loaded-NaN store", argsP[:1], 3, 0)
		check(t, name+" fabsf-of-NaN store", argsC[:1], 3, 0)
	}
}

// TestCountedLoopStepAccounting: a counted loop charges the loop test and
// the increment exactly where the generic loop does, so a budget overrun
// at any step — the test, a body statement, the increment — reports the
// same position on both engines.
func TestCountedLoopStepAccounting(t *testing.T) {
	const src = `
__global__ void k(float *y, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float s = 0.0;
    for (int j = 0; j < n; j++) {
        s += 1.0;
        if (j == 2) { j++; continue; }
        if (j > 8) { break; }
    }
    for (int c = 0; c < 3; c++) { s *= 2.0; }
    y[i] = s;
}`
	k, prog := mustLower(t, src)
	seen := map[string]bool{}
	for steps := 1; steps <= 40; steps++ {
		argsI := []kernels.Arg{kernels.BufArg(kernels.NewBuffer(memmodel.Float32, 1)), kernels.ScalarArg(20)}
		argsC := cloneArgs(argsI)
		errI := runLaunch(k, 1, 1, argsI, steps)
		errC := prog.launch(1, 1, argsC, engineOpts{workers: 1, maxSteps: steps})
		if fmt.Sprint(errI) != fmt.Sprint(errC) {
			t.Fatalf("budget %d:\ninterp:   %v\ncompiled: %v", steps, errI, errC)
		}
		var pe *Error
		if errors.As(errI, &pe) {
			seen[pe.Pos.String()] = true
		}
		buffersBitEqual(t, fmt.Sprintf("budget %d", steps), argsI, argsC)
	}
	if len(seen) < 4 {
		t.Fatalf("overruns hit only %d distinct positions: %v", len(seen), seen)
	}
}

// TestLaunchAllocsFlat: a compiled launch allocates per partition, never
// per thread — the same count at grid 4 and grid 4096.
func TestLaunchAllocsFlat(t *testing.T) {
	for _, name := range []string{"spmv_rows", "km_accum", "km_assign"} {
		var uk uvmKernel
		for _, c := range uvmKernels {
			if c.name == name {
				uk = c
			}
		}
		_, prog := mustLower(t, uk.src)
		for _, workers := range []int{1, 4} {
			allocs := func(grid int) float64 {
				threads, args := uk.args(grid * 8)
				return testing.AllocsPerRun(3, func() {
					if err := prog.launch((threads+7)/8, 8, args, engineOpts{workers: workers}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if small, large := allocs(4), allocs(4096); small != large {
				t.Errorf("%s workers=%d: %v allocs at grid 4, %v at grid 4096", name, workers, small, large)
			}
		}
	}
}
