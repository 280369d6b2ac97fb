package kernels

import (
	"math"
	"sync/atomic"
	"unsafe"

	"grout/internal/memmodel"
)

// AtomicAdd atomically adds v to element i and returns the element's
// previous value, with the same arithmetic as a non-atomic
// At(i)/Set(i, old+v) pair: the addition happens in float64 and the sum is
// converted back to the buffer's kind. Implemented as a compare-and-swap
// loop on the element's machine word, so concurrent callers from the
// parallel kernel executor never lose updates (CUDA atomicAdd semantics).
//
// Integer buffers accumulate exactly under any interleaving as long as the
// operands are integral and the running value stays within ±2^53; float
// buffers are exact per-operation but the final value depends on operand
// order when rounding occurs, exactly like floating-point atomicAdd on
// real hardware.
func (b *Buffer) AtomicAdd(i int, v float64) float64 {
	switch b.Kind {
	case memmodel.Float32:
		return AtomicAddFloat32(&b.F32[i], v)
	case memmodel.Float64:
		return AtomicAddFloat64(&b.F64[i], v)
	case memmodel.Int32:
		return AtomicAddInt32(&b.I32[i], v)
	default:
		return AtomicAddInt64(&b.I64[i], v)
	}
}

// AtomicAddFloat32 is AtomicAdd on one float32 element: the sum is
// rounded by Canon32, as a store would.
func AtomicAddFloat32(p *float32, v float64) float64 {
	addr := (*uint32)(unsafe.Pointer(p))
	for {
		oldBits := atomic.LoadUint32(addr)
		old := float64(math.Float32frombits(oldBits))
		if atomic.CompareAndSwapUint32(addr, oldBits, math.Float32bits(Canon32(old+v))) {
			return old
		}
	}
}

// AtomicAddFloat64 is AtomicAdd on one float64 element.
func AtomicAddFloat64(p *float64, v float64) float64 {
	addr := (*uint64)(unsafe.Pointer(p))
	for {
		oldBits := atomic.LoadUint64(addr)
		old := math.Float64frombits(oldBits)
		if atomic.CompareAndSwapUint64(addr, oldBits, math.Float64bits(Canon64(old+v))) {
			return old
		}
	}
}

// AtomicAddInt32 is AtomicAdd on one int32 element.
func AtomicAddInt32(p *int32, v float64) float64 {
	for {
		old := atomic.LoadInt32(p)
		if atomic.CompareAndSwapInt32(p, old, int32(float64(old)+v)) {
			return float64(old)
		}
	}
}

// AtomicAddInt64 is AtomicAdd on one int64 element.
func AtomicAddInt64(p *int64, v float64) float64 {
	for {
		old := atomic.LoadInt64(p)
		if atomic.CompareAndSwapInt64(p, old, int64(float64(old)+v)) {
			return float64(old)
		}
	}
}
