package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grout/internal/memmodel"
)

func TestBufferKinds(t *testing.T) {
	for _, kind := range []memmodel.ElemKind{memmodel.Float32, memmodel.Float64, memmodel.Int32, memmodel.Int64} {
		b := NewBuffer(kind, 10)
		if b.Len() != 10 {
			t.Fatalf("%v len = %d", kind, b.Len())
		}
		if b.Bytes() != memmodel.Bytes(10)*kind.Size() {
			t.Fatalf("%v bytes = %v", kind, b.Bytes())
		}
		b.Set(3, 7)
		if b.At(3) != 7 {
			t.Fatalf("%v roundtrip = %v", kind, b.At(3))
		}
	}
}

func TestBufferFillCloneDiff(t *testing.T) {
	b := NewBuffer(memmodel.Float64, 5)
	b.Fill(2.5)
	c := b.Clone()
	if c.MaxAbsDiff(b) != 0 {
		t.Fatalf("clone differs")
	}
	c.Set(2, 4.0)
	if d := c.MaxAbsDiff(b); d != 1.5 {
		t.Fatalf("diff = %v, want 1.5", d)
	}
	if b.At(2) != 2.5 {
		t.Fatalf("clone aliases original")
	}
}

func TestParseSignature(t *testing.T) {
	sig, err := ParseSignature("const pointer float, pointer double, sint32, float")
	if err != nil {
		t.Fatal(err)
	}
	if len(sig.Params) != 4 {
		t.Fatalf("param count = %d", len(sig.Params))
	}
	p := sig.Params
	if !p[0].Pointer || !p[0].Const || p[0].Kind != memmodel.Float32 {
		t.Fatalf("param0 = %+v", p[0])
	}
	if !p[1].Pointer || p[1].Const || p[1].Kind != memmodel.Float64 {
		t.Fatalf("param1 = %+v", p[1])
	}
	if p[2].Pointer || p[2].Kind != memmodel.Int32 {
		t.Fatalf("param2 = %+v", p[2])
	}
	if p[3].Pointer || p[3].Kind != memmodel.Float32 {
		t.Fatalf("param3 = %+v", p[3])
	}
	// Round-trip through String.
	again, err := ParseSignature(sig.String())
	if err != nil || len(again.Params) != 4 {
		t.Fatalf("signature string round-trip failed: %q, %v", sig.String(), err)
	}
}

func TestParseSignatureErrors(t *testing.T) {
	for _, bad := range []string{
		"quaternion",
		"pointer quaternion",
		"const sint32",
		"const",
		"pointer float,,sint32",
	} {
		if _, err := ParseSignature(bad); err == nil {
			t.Errorf("ParseSignature(%q) succeeded", bad)
		}
	}
	if sig, err := ParseSignature(""); err != nil || len(sig.Params) != 0 {
		t.Fatalf("empty signature: %v %v", sig, err)
	}
	// Bare pointer defaults to float.
	sig, err := ParseSignature("pointer")
	if err != nil || !sig.Params[0].Pointer || sig.Params[0].Kind != memmodel.Float32 {
		t.Fatalf("bare pointer = %+v, %v", sig, err)
	}
}

func TestSignatureValidate(t *testing.T) {
	sig := mustSig("pointer float, sint32")
	buf := NewBuffer(memmodel.Float32, 4)
	if err := sig.Validate([]Arg{BufArg(buf), ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	if err := sig.Validate([]Arg{ScalarArg(1), ScalarArg(4)}); err == nil {
		t.Fatalf("scalar for pointer accepted")
	}
	if err := sig.Validate([]Arg{BufArg(buf), BufArg(buf)}); err == nil {
		t.Fatalf("buffer for scalar accepted")
	}
	if err := sig.Validate([]Arg{BufArg(buf)}); err == nil {
		t.Fatalf("arity mismatch accepted")
	}
	wrongKind := NewBuffer(memmodel.Float64, 4)
	if err := sig.Validate([]Arg{BufArg(wrongKind), ScalarArg(4)}); err == nil {
		t.Fatalf("kind mismatch accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	d := &Def{Name: "k"}
	if err := r.Register(d); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(d); err == nil {
		t.Fatalf("duplicate registration accepted")
	}
	if err := r.Register(&Def{}); err == nil {
		t.Fatalf("empty name accepted")
	}
	got, ok := r.Lookup("k")
	if !ok || got != d {
		t.Fatalf("lookup failed")
	}
	if _, ok := r.Lookup("missing"); ok {
		t.Fatalf("missing lookup succeeded")
	}
}

func TestStdRegistryComplete(t *testing.T) {
	r := StdRegistry()
	want := []string{"add_s", "axpy", "axpy_s", "bias_relu", "blackscholes",
		"cg_matgen", "combine_argmax", "copy", "div_s", "dot", "fill",
		"gather2", "gemv", "l2norm", "relu", "rowdot", "scale", "softmax",
		"spmv_csr", "stencil3", "xpay_s"}
	names := r.Names()
	if len(names) != len(want) {
		t.Fatalf("stdlib names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("stdlib[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestDefaultCostAndAccess(t *testing.T) {
	d := &Def{Name: "d", Sig: mustSig("const pointer float, pointer float")}
	buf := NewBuffer(memmodel.Float32, 100)
	meta := MetaOf([]Arg{BufArg(buf), BufArg(buf)})
	cost := d.Cost(meta)
	if cost.Elements != 100 || cost.OpsPerElement != 1 {
		t.Fatalf("default cost = %+v", cost)
	}
	accs := d.Access(meta)
	if accs[0].Mode != memmodel.Read || accs[1].Mode != memmodel.ReadWrite {
		t.Fatalf("default access modes = %v %v", accs[0].Mode, accs[1].Mode)
	}
}

func TestAxpy(t *testing.T) {
	r := StdRegistry()
	axpy, _ := r.Lookup("axpy")
	y := NewBuffer(memmodel.Float32, 4)
	x := NewBuffer(memmodel.Float32, 4)
	for i := 0; i < 4; i++ {
		y.Set(i, 1)
		x.Set(i, float64(i))
	}
	if err := axpy.Execute([]Arg{BufArg(y), BufArg(x), ScalarArg(2), ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if want := 1 + 2*float64(i); y.At(i) != want {
			t.Fatalf("y[%d] = %v, want %v", i, y.At(i), want)
		}
	}
}

func TestDotAndL2Norm(t *testing.T) {
	r := StdRegistry()
	dot, _ := r.Lookup("dot")
	out := NewBuffer(memmodel.Float32, 1)
	x := NewBuffer(memmodel.Float32, 3)
	y := NewBuffer(memmodel.Float32, 3)
	for i := 0; i < 3; i++ {
		x.Set(i, float64(i+1)) // 1,2,3
		y.Set(i, 2)
	}
	if err := dot.Execute([]Arg{BufArg(out), BufArg(x), BufArg(y), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	if out.At(0) != 12 {
		t.Fatalf("dot = %v, want 12", out.At(0))
	}
	l2, _ := r.Lookup("l2norm")
	if err := l2.Execute([]Arg{BufArg(out), BufArg(x), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.At(0)-math.Sqrt(14)) > 1e-6 {
		t.Fatalf("l2norm = %v", out.At(0))
	}
}

func TestGemv(t *testing.T) {
	r := StdRegistry()
	gemv, _ := r.Lookup("gemv")
	// 2x3 matrix [[1,2,3],[4,5,6]] * [1,1,1] = [6,15]
	A := NewBuffer(memmodel.Float32, 6)
	for i := 0; i < 6; i++ {
		A.Set(i, float64(i+1))
	}
	x := NewBuffer(memmodel.Float32, 3)
	x.Fill(1)
	y := NewBuffer(memmodel.Float32, 2)
	if err := gemv.Execute([]Arg{BufArg(y), BufArg(A), BufArg(x), ScalarArg(2), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 6 || y.At(1) != 15 {
		t.Fatalf("gemv = [%v %v], want [6 15]", y.At(0), y.At(1))
	}
	// Bounds check.
	if err := gemv.Execute([]Arg{BufArg(y), BufArg(A), BufArg(x), ScalarArg(100), ScalarArg(3)}); err == nil {
		t.Fatalf("oversized gemv accepted")
	}
}

func TestBlackScholesSanity(t *testing.T) {
	r := StdRegistry()
	bs, _ := r.Lookup("blackscholes")
	spot := NewBuffer(memmodel.Float32, 3)
	spot.Set(0, 100) // at the money
	spot.Set(1, 200) // deep in the money call
	spot.Set(2, 0)   // degenerate
	call := NewBuffer(memmodel.Float32, 3)
	put := NewBuffer(memmodel.Float32, 3)
	if err := bs.Execute([]Arg{BufArg(call), BufArg(put), BufArg(spot), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	// At the money, K=100, r=5%, vol=20%, T=1: call ~ 10.45, put ~ 5.57.
	if math.Abs(call.At(0)-10.45) > 0.1 {
		t.Fatalf("ATM call = %v, want ~10.45", call.At(0))
	}
	if math.Abs(put.At(0)-5.57) > 0.1 {
		t.Fatalf("ATM put = %v, want ~5.57", put.At(0))
	}
	// Put-call parity: C - P = S - K e^{-rT}.
	parity := call.At(1) - put.At(1) - (200 - 100*math.Exp(-0.05))
	if math.Abs(parity) > 1e-3 {
		t.Fatalf("put-call parity violated by %v", parity)
	}
	if call.At(2) != 0 {
		t.Fatalf("zero spot call = %v", call.At(2))
	}
}

// Property: put-call parity holds across random positive spots.
func TestBlackScholesParityProperty(t *testing.T) {
	r := StdRegistry()
	bs, _ := r.Lookup("blackscholes")
	f := func(raw uint16) bool {
		s := 1 + float64(raw)/100 // spot in [1, 656]
		spot := NewBuffer(memmodel.Float64, 1)
		spot.Set(0, s)
		call := NewBuffer(memmodel.Float64, 1)
		put := NewBuffer(memmodel.Float64, 1)
		// Build float64 variants by hand: signature wants float32, so
		// use the float32 path (parity tolerance is loose enough).
		spot32 := NewBuffer(memmodel.Float32, 1)
		spot32.Set(0, s)
		call32 := NewBuffer(memmodel.Float32, 1)
		put32 := NewBuffer(memmodel.Float32, 1)
		if err := bs.Execute([]Arg{BufArg(call32), BufArg(put32), BufArg(spot32), ScalarArg(1)}); err != nil {
			return false
		}
		_ = call
		_ = put
		want := s - 100*math.Exp(-0.05)
		return math.Abs((call32.At(0)-put32.At(0))-want) < 1e-2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRelu(t *testing.T) {
	r := StdRegistry()
	softmax, _ := r.Lookup("softmax")
	x := NewBuffer(memmodel.Float32, 4)
	for i := 0; i < 4; i++ {
		x.Set(i, float64(i))
	}
	if err := softmax.Execute([]Arg{BufArg(x), ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 4; i++ {
		sum += x.At(i)
		if i > 0 && x.At(i) <= x.At(i-1) {
			t.Fatalf("softmax not monotone")
		}
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("softmax sum = %v", sum)
	}

	relu, _ := r.Lookup("relu")
	y := NewBuffer(memmodel.Float32, 3)
	y.Set(0, -5)
	y.Set(1, 0)
	y.Set(2, 3)
	if err := relu.Execute([]Arg{BufArg(y), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 0 || y.At(1) != 0 || y.At(2) != 3 {
		t.Fatalf("relu = [%v %v %v]", y.At(0), y.At(1), y.At(2))
	}
}

func TestSpmvCSR(t *testing.T) {
	r := StdRegistry()
	spmv, _ := r.Lookup("spmv_csr")
	// Matrix [[2,0],[1,3]] in CSR.
	rowptr := NewBuffer(memmodel.Int32, 3)
	rowptr.Set(0, 0)
	rowptr.Set(1, 1)
	rowptr.Set(2, 3)
	colidx := NewBuffer(memmodel.Int32, 3)
	colidx.Set(0, 0)
	colidx.Set(1, 0)
	colidx.Set(2, 1)
	vals := NewBuffer(memmodel.Float32, 3)
	vals.Set(0, 2)
	vals.Set(1, 1)
	vals.Set(2, 3)
	x := NewBuffer(memmodel.Float32, 2)
	x.Set(0, 10)
	x.Set(1, 20)
	y := NewBuffer(memmodel.Float32, 2)
	args := []Arg{BufArg(y), BufArg(rowptr), BufArg(colidx), BufArg(vals), BufArg(x), ScalarArg(2)}
	if err := spmv.Execute(args); err != nil {
		t.Fatal(err)
	}
	if y.At(0) != 20 || y.At(1) != 70 {
		t.Fatalf("spmv = [%v %v], want [20 70]", y.At(0), y.At(1))
	}
	// spmv's x access must be Random — the UVM stressor.
	accs := spmv.Access(MetaOf(args))
	if accs[4].Pattern != memmodel.Random {
		t.Fatalf("spmv x pattern = %v, want random", accs[4].Pattern)
	}
}

func TestCombineArgmax(t *testing.T) {
	r := StdRegistry()
	comb, _ := r.Lookup("combine_argmax")
	a := NewBuffer(memmodel.Float32, 2)
	b := NewBuffer(memmodel.Float32, 2)
	out := NewBuffer(memmodel.Float32, 2)
	a.Set(0, 0.9)
	b.Set(0, 0.8) // sum 1.7 -> class 1
	a.Set(1, 0.1)
	b.Set(1, 0.2) // sum 0.3 -> class 0
	if err := comb.Execute([]Arg{BufArg(out), BufArg(a), BufArg(b), ScalarArg(2)}); err != nil {
		t.Fatal(err)
	}
	if out.At(0) != 1 || out.At(1) != 0 {
		t.Fatalf("combine = [%v %v]", out.At(0), out.At(1))
	}
}

func TestFillAndCopy(t *testing.T) {
	r := StdRegistry()
	fill, _ := r.Lookup("fill")
	cp, _ := r.Lookup("copy")
	a := NewBuffer(memmodel.Float32, 4)
	b := NewBuffer(memmodel.Float32, 4)
	if err := fill.Execute([]Arg{BufArg(a), ScalarArg(3.5), ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Execute([]Arg{BufArg(b), BufArg(a), ScalarArg(4)}); err != nil {
		t.Fatal(err)
	}
	if b.MaxAbsDiff(a) != 0 {
		t.Fatalf("copy mismatch")
	}
	// fill bounds check
	if err := fill.Execute([]Arg{BufArg(a), ScalarArg(0), ScalarArg(100)}); err == nil {
		t.Fatalf("oversized fill accepted")
	}
}

func TestExecuteWithoutImpl(t *testing.T) {
	d := &Def{Name: "ghost", Sig: mustSig("sint32")}
	if err := d.Execute([]Arg{ScalarArg(1)}); err == nil {
		t.Fatalf("kernel without impl executed")
	}
}

func TestMetaOf(t *testing.T) {
	buf := NewBuffer(memmodel.Float32, 7)
	metas := MetaOf([]Arg{BufArg(buf), ScalarArg(3.5)})
	if !metas[0].IsBuffer || metas[0].Len != 7 {
		t.Fatalf("meta0 = %+v", metas[0])
	}
	if metas[1].IsBuffer || metas[1].Scalar != 3.5 {
		t.Fatalf("meta1 = %+v", metas[1])
	}
}

func TestStencil3(t *testing.T) {
	r := StdRegistry()
	st, _ := r.Lookup("stencil3")
	in := NewBuffer(memmodel.Float32, 5)
	for i := 0; i < 5; i++ {
		in.Set(i, float64(i*3)) // 0,3,6,9,12
	}
	out := NewBuffer(memmodel.Float32, 5)
	if err := st.Execute([]Arg{BufArg(out), BufArg(in), ScalarArg(5)}); err != nil {
		t.Fatal(err)
	}
	// Interior: (3+6+9)/3 = 6. Borders clamp: (0+0+3)/3 = 1.
	if out.At(2) != 6 || out.At(0) != 1 || out.At(4) != 11 {
		t.Fatalf("stencil = [%v %v ... %v]", out.At(0), out.At(2), out.At(4))
	}
	if err := st.Execute([]Arg{BufArg(out), BufArg(in), ScalarArg(100)}); err == nil {
		t.Fatalf("oversized stencil accepted")
	}
}

func TestBiasRelu(t *testing.T) {
	r := StdRegistry()
	br, _ := r.Lookup("bias_relu")
	x := NewBuffer(memmodel.Float32, 3)
	x.Set(0, -5)
	x.Set(1, -0.05)
	x.Set(2, 2)
	bias := NewBuffer(memmodel.Float32, 1)
	bias.Set(0, 0.1)
	if err := br.Execute([]Arg{BufArg(x), BufArg(bias), ScalarArg(3)}); err != nil {
		t.Fatal(err)
	}
	if x.At(0) != 0 || math.Abs(x.At(1)-0.05) > 1e-6 || math.Abs(x.At(2)-2.1) > 1e-6 {
		t.Fatalf("bias_relu = [%v %v %v]", x.At(0), x.At(1), x.At(2))
	}
}

// The elementwise stdlib kernels loop over typed slices; the reference is
// the Buffer.At/Set formulation they replaced. Results must agree bit for
// bit — NaN canonicalization, ±Inf, denormals and float32 rounding of the
// float64 intermediate included — for n below, at and above the buffer.
func TestElementwiseKernelsMatchAtSet(t *testing.T) {
	ref := map[string]func(a []Arg, n int){
		"relu": func(a []Arg, n int) {
			for i := 0; i < n; i++ {
				if a[0].Buf.At(i) < 0 {
					a[0].Buf.Set(i, 0)
				}
			}
		},
		"copy": func(a []Arg, n int) {
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[1].Buf.At(i))
			}
		},
		"scale": func(a []Arg, n int) {
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[2].Scalar*a[1].Buf.At(i))
			}
		},
		"axpy": func(a []Arg, n int) {
			for i := 0; i < n; i++ {
				a[0].Buf.Set(i, a[0].Buf.At(i)+a[2].Scalar*a[1].Buf.At(i))
			}
		},
	}
	special := []uint32{
		0x7fc00000, 0xffc00001, 0x7f800001, 0x7fffffff, // quiet, negative, signaling, canonical NaN
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x80000001, 0x007fffff, // denormals
		0x00000000, 0x80000000, // ±0
		0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	}
	const size = 64
	rng := rand.New(rand.NewSource(7))
	fill := func() *Buffer {
		b := NewBuffer(memmodel.Float32, size)
		for i := range b.F32 {
			switch {
			case i < len(special):
				b.F32[i] = math.Float32frombits(special[i])
			case i%3 == 0:
				b.F32[i] = math.Float32frombits(rng.Uint32())
			default:
				b.F32[i] = float32(rng.NormFloat64() * 100)
			}
		}
		rng.Shuffle(size, func(i, j int) { b.F32[i], b.F32[j] = b.F32[j], b.F32[i] })
		return b
	}
	reg := StdRegistry()
	alphas := []float64{0.5, -1.25, 0, 1e-40, 3e38, math.Inf(1), math.NaN()}
	for name, want := range ref {
		def, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("no %s kernel", name)
		}
		for _, n := range []int{-1, 0, 1, size - 5, size, size + 1} {
			for _, alpha := range alphas {
				y, x := fill(), fill()
				args := func(y, x *Buffer) []Arg {
					switch name {
					case "relu":
						return []Arg{BufArg(y), ScalarArg(float64(n))}
					case "copy":
						return []Arg{BufArg(y), BufArg(x), ScalarArg(float64(n))}
					default:
						return []Arg{BufArg(y), BufArg(x), ScalarArg(alpha), ScalarArg(float64(n))}
					}
				}
				got, exp := args(y, x), args(y.Clone(), x.Clone())
				if n > size {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s n=%d past a %d-element buffer did not panic", name, n, size)
							}
						}()
						_ = def.Execute(got)
					}()
					continue
				}
				if err := def.Execute(got); err != nil {
					t.Fatalf("%s n=%d: %v", name, n, err)
				}
				want(exp, n)
				for k := range got {
					if got[k].Buf == nil {
						continue
					}
					for i, v := range got[k].Buf.F32 {
						if g, w := math.Float32bits(v), math.Float32bits(exp[k].Buf.F32[i]); g != w {
							t.Fatalf("%s n=%d alpha=%v arg %d elem %d: %#08x, At/Set gives %#08x", name, n, alpha, k, i, g, w)
						}
					}
				}
			}
		}
	}
}
