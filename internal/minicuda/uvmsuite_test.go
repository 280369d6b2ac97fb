package minicuda

// The UVMBench-style suite's mini-CUDA kernels (internal/workloads,
// uvmbench.go), copied: the workloads package imports this one, so its
// sources cannot be imported here. They seed FuzzDifferential, run the
// engine differential on realistic inputs, and size BenchmarkUVMKernels.

import (
	"fmt"
	"testing"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

const uvmTriadSrc = `
extern "C" __global__ void triad3(float *a, const float *b, const float *c, float s, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        a[i] = b[i] + s * c[i];
    }
}`

const uvmStencil5Src = `
extern "C" __global__ void stencil5(float *out, const float *in, int w, int h) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int n = w * h;
    if (i < n) {
        int x = i % w;
        int y = i / w;
        float acc = in[i];
        if (x > 0) { acc += in[i - 1]; }
        if (x < w - 1) { acc += in[i + 1]; }
        if (y > 0) { acc += in[i - w]; }
        if (y < h - 1) { acc += in[i + w]; }
        out[i] = 0.2 * acc;
    }
}`

const uvmSpmvRowsSrc = `
extern "C" __global__ void spmv_rows(float *y, const int *rowptr, const int *colidx, const float *vals, const float *x, int rows) {
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

const uvmBfsStepSrc = `
extern "C" __global__ void bfs_step(int *dist, int *frontier, const int *rowptr, const int *colidx, int depth, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        if (dist[i] == depth) {
            int e0 = rowptr[i];
            int e1 = rowptr[i + 1];
            for (int j = e0; j < e1; j++) {
                int v = colidx[j];
                if (dist[v] < 0) {
                    dist[v] = depth + 1;
                    frontier[depth] = frontier[depth] + 1;
                }
            }
        }
    }
}`

const uvmPrGatherSrc = `
extern "C" __global__ void pr_gather(float *next, const int *rowptr, const int *colidx, const float *rank, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float sum = 0.0;
        int e0 = rowptr[i];
        int e1 = rowptr[i + 1];
        for (int j = e0; j < e1; j++) {
            sum += rank[colidx[j]];
        }
        next[i] = sum;
    }
}`

const uvmKmAssignSrc = `
extern "C" __global__ void km_assign(int *assign, const float *x, const float *cent, int k, int d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int best = 0;
        float bestd = 0.0;
        for (int c = 0; c < k; c++) {
            float dist = 0.0;
            for (int j = 0; j < d; j++) {
                float diff = x[i * d + j] - cent[c * d + j];
                dist += diff * diff;
            }
            if (c == 0 || dist < bestd) {
                bestd = dist;
                best = c;
            }
        }
        assign[i] = best;
    }
}`

const uvmKmAccumSrc = `
extern "C" __global__ void km_accum(float *sums, int *counts, const float *x, const int *assign, int d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        int c = assign[i];
        for (int j = 0; j < d; j++) {
            atomicAdd(&sums[c * d + j], x[i * d + j]);
        }
        atomicAdd(&counts[c], 1);
    }
}`

const uvmLrFwdSrc = `
extern "C" __global__ void lr_fwd(float *p, const float *x, const float *w, int d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float z = 0.0;
        for (int j = 0; j < d; j++) {
            z += x[i * d + j] * w[j];
        }
        p[i] = 1.0 / (1.0 + expf(-z));
    }
}`

const uvmLrGradSrc = `
extern "C" __global__ void lr_grad(float *grad, const float *x, const float *p, const float *y, int d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float e = p[i] - y[i];
        for (int j = 0; j < d; j++) {
            atomicAdd(&grad[j], e * x[i * d + j]);
        }
    }
}`

const uvmConv3x3Src = `
extern "C" __global__ void conv3x3(float *out, const float *in, const float *wgt, float bias, int w, int h, int f) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    int hw = w * h;
    int n = hw * f;
    if (i < n) {
        int ff = i / hw;
        int p = i % hw;
        int x = p % w;
        int y = p / w;
        float acc = bias;
        for (int ky = 0; ky < 3; ky++) {
            for (int kx = 0; kx < 3; kx++) {
                int xx = x + kx - 1;
                int yy = y + ky - 1;
                if (xx >= 0 && xx < w && yy >= 0 && yy < h) {
                    acc += in[yy * w + xx] * wgt[ff * 9 + ky * 3 + kx];
                }
            }
        }
        if (acc < 0.0) { acc = 0.0; }
        out[i] = acc;
    }
}`

const uvmConvCombineSrc = `
extern "C" __global__ void conv_combine(float *img, const float *out, int hw, int f) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < hw) {
        float acc = 0.0;
        for (int c = 0; c < f; c++) {
            acc += out[c * hw + i];
        }
        img[i] = acc / (float)f;
    }
}`

// uvmKernel is one suite kernel with an input builder: args for a launch
// over n points (rows, pixels, vertices), laid out as the workload lays
// them out, and the thread count the workload launches.
type uvmKernel struct {
	name, src string
	args      func(n int) (threads int, args []kernels.Arg)
}

func fbuf(n int, f func(i int) float64) kernels.Arg {
	b := kernels.NewBuffer(memmodel.Float32, n)
	for i := range b.F32 {
		b.F32[i] = float32(f(i))
	}
	return kernels.BufArg(b)
}

func ibuf(n int, f func(i int) int) kernels.Arg {
	b := kernels.NewBuffer(memmodel.Int32, n)
	for i := range b.I32 {
		b.I32[i] = int32(f(i))
	}
	return kernels.BufArg(b)
}

func num(v int) kernels.Arg { return kernels.ScalarArg(float64(v)) }

// csr returns rowptr and colidx of a rows-vertex graph of degree deg.
func csr(rows, deg int) (rowptr, colidx kernels.Arg) {
	return ibuf(rows+1, func(i int) int { return i * deg }),
		ibuf(rows*deg, func(i int) int { return (i/deg*7 + i%deg*461 + 1) % rows })
}

func lattice(mul, md int, scale float64) func(int) float64 {
	return func(i int) float64 { return float64((i*mul+1)%md) * scale }
}

var uvmKernels = []uvmKernel{
	{"triad3", uvmTriadSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{fbuf(n, nil0), fbuf(n, lattice(3, 251, 0.5)), fbuf(n, lattice(7, 127, 0.25)),
			kernels.ScalarArg(2), num(n)}
	}},
	{"stencil5", uvmStencil5Src, func(n int) (int, []kernels.Arg) {
		w := 64
		h := n / w
		return w * h, []kernels.Arg{fbuf(w*h, nil0), fbuf(w*h, lattice(13, 255, 1)), num(w), num(h)}
	}},
	{"spmv_rows", uvmSpmvRowsSrc, func(n int) (int, []kernels.Arg) {
		rp, ci := csr(n, 8)
		return n, []kernels.Arg{fbuf(n, nil0), rp, ci, fbuf(8*n, lattice(11, 32, 0.0625)),
			fbuf(n, lattice(5, 64, 0.125)), num(n)}
	}},
	{"bfs_step", uvmBfsStepSrc, func(n int) (int, []kernels.Arg) {
		rp, ci := csr(n, 8)
		return n, []kernels.Arg{ibuf(n, func(i int) int { return i%5 - 2 }), ibuf(8, func(int) int { return 0 }),
			rp, ci, num(1), num(n)}
	}},
	{"pr_gather", uvmPrGatherSrc, func(n int) (int, []kernels.Arg) {
		rp, ci := csr(n, 8)
		return n, []kernels.Arg{fbuf(n, nil0), rp, ci, fbuf(n, lattice(3, 17, 0.01)), num(n)}
	}},
	{"km_assign", uvmKmAssignSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{ibuf(n, func(int) int { return 0 }), fbuf(16*n, lattice(7, 61, 0.1)),
			fbuf(8*16, lattice(5, 41, 0.15)), num(8), num(16), num(n)}
	}},
	{"km_accum", uvmKmAccumSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{fbuf(8*16, nil0), ibuf(8, func(int) int { return 0 }),
			fbuf(16*n, lattice(7, 61, 0.1)), ibuf(n, func(i int) int { return i * 5 % 8 }), num(16), num(n)}
	}},
	{"lr_fwd", uvmLrFwdSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{fbuf(n, nil0), fbuf(32*n, lattice(3, 23, 0.05)), fbuf(32, lattice(1, 7, 0.1)),
			num(32), num(n)}
	}},
	{"lr_grad", uvmLrGradSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{fbuf(32, nil0), fbuf(32*n, lattice(3, 23, 0.05)), fbuf(n, lattice(1, 9, 0.1)),
			fbuf(n, func(i int) float64 { return float64(i % 2) }), num(32), num(n)}
	}},
	{"conv3x3", uvmConv3x3Src, func(n int) (int, []kernels.Arg) {
		w := 64
		h := n / w
		return w * h * 8, []kernels.Arg{fbuf(w*h*8, nil0), fbuf(w*h, lattice(13, 255, 0.01)),
			fbuf(8*9, lattice(5, 19, 0.1)), kernels.ScalarArg(-0.5), num(w), num(h), num(8)}
	}},
	{"conv_combine", uvmConvCombineSrc, func(n int) (int, []kernels.Arg) {
		return n, []kernels.Arg{fbuf(n, nil0), fbuf(8*n, lattice(3, 29, 0.2)), num(n), num(8)}
	}},
}

func nil0(int) float64 { return 0 }

// TestUVMKernelsDifferential runs every suite kernel on realistic inputs
// through both engines and the partitioned executor, bit for bit.
func TestUVMKernelsDifferential(t *testing.T) {
	for _, uk := range uvmKernels {
		t.Run(uk.name, func(t *testing.T) {
			ks, err := Parse(uk.src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lowerProgram(ks[0])
			if err != nil {
				t.Fatal(err)
			}
			threads, base := uk.args(512)
			grid := (threads + 63) / 64
			ref := cloneArgs(base)
			if err := runLaunch(ks[0], grid, 64, ref, 0); err != nil {
				t.Fatalf("interp: %v", err)
			}
			for _, workers := range []int{1, 4} {
				got := cloneArgs(base)
				if err := prog.launch(grid, 64, got, engineOpts{workers: workers}); err != nil {
					t.Fatalf("compiled (workers %d): %v", workers, err)
				}
				buffersBitEqual(t, fmt.Sprintf("%s/workers=%d", uk.name, workers), ref, got)
			}
		})
	}
}

// BenchmarkUVMKernels times each suite kernel on one partition of the
// repository benchmark's numeric-apps footprint (20 MiB over 4 blocks):
// go test -run '^$' -bench UVMKernels ./internal/minicuda/
func BenchmarkUVMKernels(b *testing.B) {
	sizes := map[string]int{
		"triad3": 436906, "stencil5": 655360, "spmv_rows": 68985, "bfs_step": 68985,
		"pr_gather": 68985, "km_assign": 77101, "km_accum": 77101, "lr_fwd": 40329,
		"lr_grad": 40329, "conv3x3": 131072, "conv_combine": 131072,
	}
	for _, uk := range uvmKernels {
		def, err := Compile(uk.src, "")
		if err != nil {
			b.Fatal(err)
		}
		threads, args := uk.args(sizes[uk.name])
		grid := (threads + 255) / 256
		b.Run(uk.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := def.ExecuteLaunch(grid, 256, args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
