package kernels

import (
	"fmt"
	"math"

	"grout/internal/memmodel"
)

// mustSig parses a signature known at compile time.
func mustSig(s string) Signature {
	sig, err := ParseSignature(s)
	if err != nil {
		panic(err)
	}
	return sig
}

func acc(param int, mode memmodel.AccessMode, pat memmodel.Pattern, frac float64, passes int) memmodel.Access {
	return memmodel.Access{Param: param, Mode: mode, Pattern: pat, Fraction: frac, Passes: passes}
}

// stdlib returns the native kernel library: the numeric building blocks of
// the paper's workload suite (Black–Scholes, the MLE ensemble, CG, MV).
func stdlib() []*Def {
	return []*Def{
		fillDef(), copyDef(), axpyDef(), scaleDef(), dotDef(),
		gemvDef(), blackScholesDef(), reluDef(), softmaxDef(),
		combineArgmaxDef(), spmvCSRDef(), l2normDef(),
		axpySDef(), xpaySDef(), divSDef(), rowdotDef(),
		addSDef(), gather2Def(), cgMatgenDef(),
		stencil3Def(), biasReluDef(),
	}
}

// stencil3(out, in, n): out[i] = (in[i-1] + in[i] + in[i+1]) / 3 with
// clamped borders — the 1-D blur used by the image-pipeline workload.
// Strided-ish neighbours still coalesce; the pattern is sequential.
func stencil3Def() *Def {
	return &Def{
		Name: "stencil3",
		Sig:  mustSig("pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[2].Scalar), OpsPerElement: 4}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[2].Int()
			if n > a[0].Buf.Len() || n > a[1].Buf.Len() {
				return fmt.Errorf("stencil3: n %d exceeds buffers", n)
			}
			in, out := a[1].Buf, a[0].Buf
			for i := 0; i < n; i++ {
				lo, hi := i-1, i+1
				if lo < 0 {
					lo = 0
				}
				if hi >= n {
					hi = n - 1
				}
				out.Set(i, (in.At(lo)+in.At(i)+in.At(hi))/3)
			}
			return nil
		},
	}
}

// bias_relu(x, bias, n): x[i] = max(0, x[i] + bias[0]) — the activation
// step of the inference workload's dense layers.
func biasReluDef() *Def {
	return &Def{
		Name: "bias_relu",
		Sig:  mustSig("pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[2].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Broadcast, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[2].Int()
			b := a[1].Buf.At(0)
			for i := 0; i < n; i++ {
				v := a[0].Buf.At(i) + b
				if v < 0 {
					v = 0
				}
				a[0].Buf.Set(i, v)
			}
			return nil
		},
	}
}

// cg_matgen(A, rowOffset, rows, n): generates a row block of the
// diagonally dominant SPD test matrix directly on the device
// (A[i][j] = 1/(1+|i-j|) off-diagonal, n on the diagonal). Device-side
// generation is the common benchmark idiom — and, because the CE is a
// write-only full overwrite, the scheduler's exploration phase spreads the
// matrix blocks across nodes without shipping them from the controller.
func cgMatgenDef() *Def {
	return &Def{
		Name: "cg_matgen",
		Sig:  mustSig("pointer float, sint32, sint32, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			rows, n := int64(m[2].Scalar), int64(m[3].Scalar)
			return Cost{Elements: rows * n, OpsPerElement: 4}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{acc(0, memmodel.Write, memmodel.Sequential, 1, 1)}
		},
		Run: func(a []Arg) error {
			rowOffset, rows, n := int64(a[1].Scalar), int64(a[2].Scalar), int64(a[3].Scalar)
			if rows*n > int64(a[0].Buf.Len()) {
				return fmt.Errorf("cg_matgen: %dx%d exceeds buffer %d", rows, n, a[0].Buf.Len())
			}
			for r := int64(0); r < rows; r++ {
				gi := rowOffset + r
				for j := int64(0); j < n; j++ {
					d := gi - j
					if d < 0 {
						d = -d
					}
					v := 1.0 / float64(1+d)
					if gi == j {
						v = float64(n)
					}
					a[0].Buf.Set(int(r*n+j), v)
				}
			}
			return nil
		},
	}
}

// add_s(out, a, b): out[0] = a[0] + b[0] — reduction of per-partition
// partial scalars.
func addSDef() *Def {
	return &Def{
		Name: "add_s",
		Sig:  mustSig("pointer float, const pointer float, const pointer float"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: 1, OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			a[0].Buf.Set(0, a[1].Buf.At(0)+a[2].Buf.At(0))
			return nil
		},
	}
}

// gather2(dst, src0, src1, n0, n1): dst = [src0; src1] — reassembles a
// row-partitioned vector; the join CE of the paper's CG DAG.
func gather2Def() *Def {
	return &Def{
		Name: "gather2",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar) + int64(m[4].Scalar), OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n0, n1 := a[3].Int(), a[4].Int()
			if n0+n1 > a[0].Buf.Len() {
				return fmt.Errorf("gather2: %d+%d exceeds destination %d", n0, n1, a[0].Buf.Len())
			}
			for i := 0; i < n0; i++ {
				a[0].Buf.Set(i, a[1].Buf.At(i))
			}
			for i := 0; i < n1; i++ {
				a[0].Buf.Set(n0+i, a[2].Buf.At(i))
			}
			return nil
		},
	}
}

// axpy_s(y, x, coef, sign, n): y[i] += sign*coef[0]*x[i]. The coefficient
// lives in a one-element device array so iterative solvers (CG) never
// synchronize scalars back to the host.
func axpySDef() *Def {
	return &Def{
		Name: "axpy_s",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[4].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Broadcast, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n, sign := a[4].Int(), a[3].Scalar
			coef := a[2].Buf.At(0) * sign
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[0].Buf.At(i)+coef*a[1].Buf.At(i))
			}
			return nil
		},
	}
}

// xpay_s(p, r, coef, n): p[i] = r[i] + coef[0]*p[i] — CG's direction
// update.
func xpaySDef() *Def {
	return &Def{
		Name: "xpay_s",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Broadcast, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[3].Int()
			coef := a[2].Buf.At(0)
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[1].Buf.At(i)+coef*a[0].Buf.At(i))
			}
			return nil
		},
	}
}

// div_s(out, num, den): out[0] = num[0]/den[0] — scalar plumbing for CG's
// alpha and beta, kept on device.
func divSDef() *Def {
	return &Def{
		Name: "div_s",
		Sig:  mustSig("pointer float, const pointer float, const pointer float"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: 1, OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			num, den := a[1].Buf.At(0), a[2].Buf.At(0)
			if den == 0 {
				if num == 0 {
					// Converged iterative solvers divide 0 by 0 (CG's
					// beta once the residual underflows); the update
					// coefficient is then zero.
					a[0].Buf.Set(0, 0)
					return nil
				}
				return fmt.Errorf("div_s: division by zero")
			}
			a[0].Buf.Set(0, num/den)
			return nil
		},
	}
}

// rowdot(out, X, w, rows, features): out[r] = X[r,:]·w — the per-row
// scoring step of the MLE ensemble's pipelines. The feature matrix is
// gathered per-row in data-dependent order (categorical feature lookups),
// the canonical random-access UVM stressor; the weight vector is the
// FALL-style broadcast operand.
func rowdotDef() *Def {
	return &Def{
		Name: "rowdot",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			rows, features := int64(m[3].Scalar), int64(m[4].Scalar)
			return Cost{Elements: rows * features, OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Random, 1, 1),
				acc(2, memmodel.Read, memmodel.Broadcast, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			rows, features := a[3].Int(), a[4].Int()
			if rows*features > a[1].Buf.Len() {
				return fmt.Errorf("rowdot: %dx%d exceeds matrix buffer %d", rows, features, a[1].Buf.Len())
			}
			X, w, out := a[1].Buf, a[2].Buf, a[0].Buf
			for r := 0; r < rows; r++ {
				var sum float64
				base := r * features
				for f := 0; f < features; f++ {
					sum += X.At(base+f) * w.At(f)
				}
				out.Set(r, sum)
			}
			return nil
		},
	}
}

// fill(x, value, n): x[i] = value.
func fillDef() *Def {
	return &Def{
		Name: "fill",
		Sig:  mustSig("pointer float, float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[2].Scalar), OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{acc(0, memmodel.Write, memmodel.Sequential, 1, 1)}
		},
		Run: func(a []Arg) error {
			n := a[2].Int()
			if n > a[0].Buf.Len() {
				return fmt.Errorf("fill: n %d exceeds buffer %d", n, a[0].Buf.Len())
			}
			v := a[1].Scalar
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, v)
			}
			return nil
		},
	}
}

// The four elementwise kernels below (copy, axpy, scale, relu) loop over
// their typed slices directly: Sig.Validate has already pinned every
// pointer argument to Float32, and Buffer.At/Set would redo that kind
// dispatch per element. The arithmetic keeps At/Set's shape — computed in
// float64, rounded once by Canon32 — so results are bit-identical to it.
// An n beyond a buffer panics, as indexing did.

// f32Prefix is b's first n elements, the range a loop `for i := 0; i < n;
// i++` over b.F32[i] touches: empty for n <= 0, a panic for n > len.
func f32Prefix(b *Buffer, n int) []float32 {
	if n < 0 {
		n = 0
	}
	return b.F32[:n:len(b.F32)]
}

// copy(dst, src, n): dst[i] = src[i].
func copyDef() *Def {
	return &Def{
		Name: "copy",
		Sig:  mustSig("pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[2].Scalar), OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[2].Int()
			dst, src := f32Prefix(a[0].Buf, n), f32Prefix(a[1].Buf, n)
			for i, v := range src {
				dst[i] = Canon32(float64(v))
			}
			return nil
		},
	}
}

// axpy(y, x, alpha, n): y[i] += alpha*x[i].
func axpyDef() *Def {
	return &Def{
		Name: "axpy",
		Sig:  mustSig("pointer float, const pointer float, float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n, alpha := a[3].Int(), a[2].Scalar
			y, x := f32Prefix(a[0].Buf, n), f32Prefix(a[1].Buf, n)
			for i, v := range x {
				y[i] = Canon32(float64(y[i]) + alpha*float64(v))
			}
			return nil
		},
	}
}

// scale(y, x, alpha, n): y[i] = alpha*x[i] (y may alias x logically).
func scaleDef() *Def {
	return &Def{
		Name: "scale",
		Sig:  mustSig("pointer float, const pointer float, float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n, alpha := a[3].Int(), a[2].Scalar
			y, x := f32Prefix(a[0].Buf, n), f32Prefix(a[1].Buf, n)
			for i, v := range x {
				y[i] = Canon32(alpha * float64(v))
			}
			return nil
		},
	}
}

// dot(out, x, y, n): out[0] = sum x[i]*y[i].
func dotDef() *Def {
	return &Def{
		Name: "dot",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[3].Int()
			var sum float64
			for i := 0; i < n; i++ {
				sum += a[1].Buf.At(i) * a[2].Buf.At(i)
			}
			a[0].Buf.Set(0, sum)
			return nil
		},
	}
}

// l2norm(out, x, n): out[0] = ||x||_2.
func l2normDef() *Def {
	return &Def{
		Name: "l2norm",
		Sig:  mustSig("pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[2].Scalar), OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[2].Int()
			var sum float64
			for i := 0; i < n; i++ {
				v := a[1].Buf.At(i)
				sum += v * v
			}
			a[0].Buf.Set(0, math.Sqrt(sum))
			return nil
		},
	}
}

// gemv(y, A, x, rows, cols): y = A*x, A row-major rows×cols. The dense
// matrix streams sequentially; the input vector is re-read by every row —
// the broadcast/FALL pattern.
func gemvDef() *Def {
	return &Def{
		Name: "gemv",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			rows, cols := int64(m[3].Scalar), int64(m[4].Scalar)
			return Cost{Elements: rows * cols, OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Broadcast, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			rows, cols := a[3].Int(), a[4].Int()
			if rows*cols > a[1].Buf.Len() {
				return fmt.Errorf("gemv: %dx%d exceeds matrix buffer %d", rows, cols, a[1].Buf.Len())
			}
			A, x, y := a[1].Buf, a[2].Buf, a[0].Buf
			for r := 0; r < rows; r++ {
				var sum float64
				base := r * cols
				for c := 0; c < cols; c++ {
					sum += A.At(base+c) * x.At(c)
				}
				y.Set(r, sum)
			}
			return nil
		},
	}
}

// blackscholes(call, put, spot, n): European option pricing with fixed
// strike/rate/volatility/expiry, matching the paper's Figure 1 workload.
func blackScholesDef() *Def {
	const (
		strike = 100.0
		rate   = 0.05
		vol    = 0.2
		expiry = 1.0
	)
	cnd := func(d float64) float64 { // cumulative normal distribution
		return 0.5 * math.Erfc(-d/math.Sqrt2)
	}
	return &Def{
		Name: "blackscholes",
		Sig:  mustSig("pointer float, pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 60}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[3].Int()
			call, put, spot := a[0].Buf, a[1].Buf, a[2].Buf
			for i := 0; i < n; i++ {
				s := spot.At(i)
				if s <= 0 {
					call.Set(i, 0)
					put.Set(i, strike*math.Exp(-rate*expiry))
					continue
				}
				d1 := (math.Log(s/strike) + (rate+vol*vol/2)*expiry) / (vol * math.Sqrt(expiry))
				d2 := d1 - vol*math.Sqrt(expiry)
				c := s*cnd(d1) - strike*math.Exp(-rate*expiry)*cnd(d2)
				p := strike*math.Exp(-rate*expiry)*cnd(-d2) - s*cnd(-d1)
				call.Set(i, c)
				put.Set(i, p)
			}
			return nil
		},
	}
}

// relu(x, n): x[i] = max(0, x[i]).
func reluDef() *Def {
	return &Def{
		Name: "relu",
		Sig:  mustSig("pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[1].Scalar), OpsPerElement: 1}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 1)}
		},
		Run: func(a []Arg) error {
			x := f32Prefix(a[0].Buf, a[1].Int())
			for i, v := range x {
				if v < 0 {
					x[i] = 0
				}
			}
			return nil
		},
	}
}

// softmax(x, n): in-place softmax.
func softmaxDef() *Def {
	return &Def{
		Name: "softmax",
		Sig:  mustSig("pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[1].Scalar), OpsPerElement: 8}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{acc(0, memmodel.ReadWrite, memmodel.Sequential, 1, 2)}
		},
		Run: func(a []Arg) error {
			n := a[1].Int()
			if n == 0 {
				return nil
			}
			max := a[0].Buf.At(0)
			for i := 1; i < n; i++ {
				if v := a[0].Buf.At(i); v > max {
					max = v
				}
			}
			var sum float64
			for i := 0; i < n; i++ {
				e := math.Exp(a[0].Buf.At(i) - max)
				a[0].Buf.Set(i, e)
				sum += e
			}
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[0].Buf.At(i)/sum)
			}
			return nil
		},
	}
}

// combine_argmax(out, a, b, n): out[i] = 1 if ensemble score of class 1
// wins, else 0 — the MLE ensemble's final vote between two pipelines.
func combineArgmaxDef() *Def {
	return &Def{
		Name: "combine_argmax",
		Sig:  mustSig("pointer float, const pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: int64(m[3].Scalar), OpsPerElement: 3}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			n := a[3].Int()
			for i := 0; i < n; i++ {
				score := a[1].Buf.At(i) + a[2].Buf.At(i)
				if score >= 1.0 {
					a[0].Buf.Set(i, 1)
				} else {
					a[0].Buf.Set(i, 0)
				}
			}
			return nil
		},
	}
}

// spmv_csr(y, rowptr, colidx, vals, x, rows): CSR sparse matrix-vector
// product; the column-index gathers on x are the canonical random-access
// UVM stressor.
func spmvCSRDef() *Def {
	return &Def{
		Name: "spmv_csr",
		Sig: mustSig("pointer float, const pointer int, const pointer int, " +
			"const pointer float, const pointer float, sint32"),
		CostOf: func(m []ArgMeta) Cost {
			return Cost{Elements: m[3].Len, OpsPerElement: 2}
		},
		AccessOf: func(m []ArgMeta) []memmodel.Access {
			return []memmodel.Access{
				acc(0, memmodel.Write, memmodel.Sequential, 1, 1),
				acc(1, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(2, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(3, memmodel.Read, memmodel.Sequential, 1, 1),
				acc(4, memmodel.Read, memmodel.Random, 1, 1),
			}
		},
		Run: func(a []Arg) error {
			rows := a[5].Int()
			y, rowptr, colidx, vals, x := a[0].Buf, a[1].Buf, a[2].Buf, a[3].Buf, a[4].Buf
			if rows+1 > rowptr.Len() {
				return fmt.Errorf("spmv_csr: rowptr too short: %d < %d", rowptr.Len(), rows+1)
			}
			for r := 0; r < rows; r++ {
				var sum float64
				for k := int(rowptr.At(r)); k < int(rowptr.At(r+1)); k++ {
					sum += vals.At(k) * x.At(int(colidx.At(k)))
				}
				y.Set(r, sum)
			}
			return nil
		},
	}
}
