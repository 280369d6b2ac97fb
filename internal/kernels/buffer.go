// Package kernels defines the kernel abstraction shared by the GrOUT
// runtime, the mini-CUDA compiler and the workload suite: typed host-side
// buffers, NFI-style signatures, and kernel definitions that carry both a
// numeric implementation (so examples compute real results) and a cost
// descriptor (so the simulator can price a launch without executing it).
package kernels

import (
	"fmt"
	"math"

	"grout/internal/memmodel"
)

// Buffer is the host-visible storage of a framework-managed array. Exactly
// one of the typed slices is non-nil, matching Kind.
type Buffer struct {
	Kind memmodel.ElemKind
	F32  []float32
	F64  []float64
	I32  []int32
	I64  []int64
}

// NewBuffer allocates a zeroed buffer of n elements of the given kind.
func NewBuffer(kind memmodel.ElemKind, n int) *Buffer {
	b := &Buffer{Kind: kind}
	switch kind {
	case memmodel.Float32:
		b.F32 = make([]float32, n)
	case memmodel.Float64:
		b.F64 = make([]float64, n)
	case memmodel.Int32:
		b.I32 = make([]int32, n)
	case memmodel.Int64:
		b.I64 = make([]int64, n)
	default:
		panic(fmt.Sprintf("kernels: unknown element kind %v", kind))
	}
	return b
}

// Len reports the element count.
func (b *Buffer) Len() int {
	switch b.Kind {
	case memmodel.Float32:
		return len(b.F32)
	case memmodel.Float64:
		return len(b.F64)
	case memmodel.Int32:
		return len(b.I32)
	default:
		return len(b.I64)
	}
}

// Bytes reports the buffer's size in bytes.
func (b *Buffer) Bytes() memmodel.Bytes {
	return memmodel.Bytes(b.Len()) * b.Kind.Size()
}

// At reads element i as float64 (lossless for all kinds except very large
// int64 values; fine for numeric kernels and tests).
func (b *Buffer) At(i int) float64 {
	switch b.Kind {
	case memmodel.Float32:
		return float64(b.F32[i])
	case memmodel.Float64:
		return b.F64[i]
	case memmodel.Int32:
		return float64(b.I32[i])
	default:
		return float64(b.I64[i])
	}
}

// CUDA never lets NaN payloads escape an arithmetic unit: a
// single-precision op with a NaN input returns the quiet NaN 0x7fffffff,
// and double precision its 64-bit analogue. Go gives no such guarantee —
// the register allocator may commute ADDSD operands, so which operand's
// sign/payload propagates through `NaN + NaN` is codegen-dependent, and
// the same source expression can yield different NaN bits in different
// closures. Canonicalizing at the store boundary restores CUDA's
// determinism: it is what lets the engine differential fuzzer and the
// window differential gate compare buffers bit-for-bit. RawBytes paths stay
// untouched — transfers are memcpys and must preserve bytes exactly.
var (
	canonNaN32 = math.Float32frombits(0x7fffffff)
	canonNaN64 = math.Float64frombits(0x7fffffffffffffff)
)

// Canon32 rounds v to single precision as Set does for a Float32 buffer:
// any NaN becomes the canonical quiet NaN. Every store into float32
// element storage goes through it.
func Canon32(v float64) float32 {
	if v != v {
		return canonNaN32
	}
	return float32(v)
}

// Canon64 is Canon32's double-precision twin: any NaN becomes the
// canonical quiet NaN, every other value passes through.
func Canon64(v float64) float64 {
	if v != v {
		return canonNaN64
	}
	return v
}

// Set stores v into element i, converting to the buffer's kind.
func (b *Buffer) Set(i int, v float64) {
	switch b.Kind {
	case memmodel.Float32:
		b.F32[i] = Canon32(v)
	case memmodel.Float64:
		b.F64[i] = Canon64(v)
	case memmodel.Int32:
		b.I32[i] = int32(v)
	default:
		b.I64[i] = int64(v)
	}
}

// Fill sets every element to v. The kind switch is hoisted out of the
// loop: each arm is a tight fill over the typed slice rather than a
// per-element Set dispatch.
func (b *Buffer) Fill(v float64) {
	if v != v {
		v = canonNaN64
		if b.Kind == memmodel.Float32 {
			for i := range b.F32 {
				b.F32[i] = canonNaN32
			}
			return
		}
	}
	switch b.Kind {
	case memmodel.Float32:
		f := float32(v)
		for i := range b.F32 {
			b.F32[i] = f
		}
	case memmodel.Float64:
		for i := range b.F64 {
			b.F64[i] = v
		}
	case memmodel.Int32:
		n := int32(v)
		for i := range b.I32 {
			b.I32[i] = n
		}
	default:
		n := int64(v)
		for i := range b.I64 {
			b.I64[i] = n
		}
	}
}

// Clone returns a deep copy of the buffer.
func (b *Buffer) Clone() *Buffer {
	c := &Buffer{Kind: b.Kind}
	switch b.Kind {
	case memmodel.Float32:
		c.F32 = append([]float32(nil), b.F32...)
	case memmodel.Float64:
		c.F64 = append([]float64(nil), b.F64...)
	case memmodel.Int32:
		c.I32 = append([]int32(nil), b.I32...)
	default:
		c.I64 = append([]int64(nil), b.I64...)
	}
	return c
}

// MaxAbsDiff reports the largest absolute element difference between two
// buffers of equal length; used by equivalence tests. Comparing buffers of
// different lengths is a caller bug — it panics instead of silently
// comparing the shorter prefix. When both buffers share a kind the
// element loop runs over the typed slices directly.
func (b *Buffer) MaxAbsDiff(o *Buffer) float64 {
	n := b.Len()
	if o.Len() != n {
		panic(fmt.Sprintf("kernels: MaxAbsDiff over mismatched lengths %d vs %d", n, o.Len()))
	}
	var max float64
	if b.Kind == o.Kind {
		switch b.Kind {
		case memmodel.Float32:
			for i, v := range b.F32 {
				if d := math.Abs(float64(v) - float64(o.F32[i])); d > max {
					max = d
				}
			}
			return max
		case memmodel.Float64:
			for i, v := range b.F64 {
				if d := math.Abs(v - o.F64[i]); d > max {
					max = d
				}
			}
			return max
		case memmodel.Int32:
			for i, v := range b.I32 {
				if d := math.Abs(float64(v) - float64(o.I32[i])); d > max {
					max = d
				}
			}
			return max
		default:
			for i, v := range b.I64 {
				if d := math.Abs(float64(v) - float64(o.I64[i])); d > max {
					max = d
				}
			}
			return max
		}
	}
	for i := 0; i < n; i++ {
		if d := math.Abs(b.At(i) - o.At(i)); d > max {
			max = d
		}
	}
	return max
}

// Arg is one actual argument of a kernel invocation: a buffer for pointer
// parameters or a scalar for value parameters.
type Arg struct {
	Buf    *Buffer
	Scalar float64
}

// BufArg wraps a buffer argument.
func BufArg(b *Buffer) Arg { return Arg{Buf: b} }

// ScalarArg wraps a scalar argument.
func ScalarArg(v float64) Arg { return Arg{Scalar: v} }

// Int reads the scalar as an int (grid sizes, element counts).
func (a Arg) Int() int { return int(a.Scalar) }
