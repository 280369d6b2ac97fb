package workloads

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
)

// helperLoopSrc prices a __device__ helper inside a loop bounded by a
// scalar parameter, with a loop of the same bound in the helper: its
// estimate depends on the launch's arguments, so every pricing walks the
// helper again.
const helperLoopSrc = `
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
}`

// defRun prices and runs def once on fresh deterministic arguments (64
// elements per array, small integer scalars) and reports the cost, the
// outcome and every array's final bytes.
func defRun(def *kernels.Def) string {
	const n = 64
	metas := make([]kernels.ArgMeta, len(def.Sig.Params))
	args := make([]kernels.Arg, len(def.Sig.Params))
	for i, p := range def.Sig.Params {
		if !p.Pointer {
			v := 4.0
			if p.Kind == memmodel.Float32 || p.Kind == memmodel.Float64 {
				v = 0.5
			}
			metas[i], args[i] = kernels.ArgMeta{Scalar: v}, kernels.ScalarArg(v)
			continue
		}
		buf := kernels.NewBuffer(p.Kind, n)
		for j := 0; j < n; j++ {
			if p.Kind == memmodel.Int32 || p.Kind == memmodel.Int64 {
				buf.Set(j, float64(j%4))
			} else {
				buf.Set(j, 0.25*float64(j%7)-0.5)
			}
		}
		metas[i], args[i] = kernels.ArgMeta{IsBuffer: true, Len: n}, kernels.BufArg(buf)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%+v %v ", def.CostLaunch(2, 32, metas), def.Access(metas))
	fmt.Fprintf(&out, "%v", def.ExecuteLaunch(2, 32, args))
	for _, a := range args {
		if a.Buf != nil {
			out.Write(a.Buf.RawBytes())
		}
	}
	return out.String()
}

// TestSharedKernelDefsConcurrent: compiled kernels are shared process-wide
// — minicuda's compile cache hands every controller the same Def for the
// same source, and the stdlib Defs are built once — so one Def is priced
// and run from many goroutines at once. Three goroutines each run every
// FullSuite program on a fleet of their own and, before each, price and
// run every stdlib kernel and a kernel whose estimate walks a __device__
// helper under a scalar-bounded loop. Every result must match a run made
// alone; under -race (ci.sh step 4b) any write to shared compiled state
// fails.
func TestSharedKernelDefsConcurrent(t *testing.T) {
	suite := FullSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	helper, err := minicuda.Compile(helperLoopSrc, "")
	if err != nil {
		t.Fatal(err)
	}
	reg := kernels.StdRegistry()
	defs := []*kernels.Def{helper}
	for _, name := range reg.Names() {
		d, _ := reg.Lookup(name)
		defs = append(defs, d)
	}

	type result struct {
		arrays [][]byte
		err    string
	}
	want := make(map[string]result, len(names))
	for _, name := range names {
		arrays, errText := runDifferential(t, suite[name], true)
		want[name] = result{arrays, errText}
	}
	wantDefs := make([]string, len(defs))
	for i, d := range defs {
		wantDefs[i] = defRun(d)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range names {
				for k, d := range defs {
					if got := defRun(d); got != wantDefs[k] {
						t.Errorf("%s beside other runs: priced or ran differently from alone", d.Name)
					}
				}
				name := names[(i+g)%len(names)] // the goroutines start apart
				arrays, errText := runDifferential(t, suite[name], true)
				w := want[name]
				if errText != w.err || len(arrays) != len(w.arrays) {
					t.Errorf("%s beside other runs: error %q and %d arrays, alone %q and %d",
						name, errText, len(arrays), w.err, len(w.arrays))
					continue
				}
				for j := range arrays {
					if !bytes.Equal(arrays[j], w.arrays[j]) {
						t.Errorf("%s beside other runs: array %d differs from a run alone", name, j)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
