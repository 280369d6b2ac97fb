// Package ring is the bounded log behind the per-CE histories that must not
// grow with uptime: the controller's trace log and each runtime's record
// log.
package ring

// Ring holds the most recent Cap values pushed into it. Storage grows with
// use up to the capacity and is then overwritten in place, so a short-lived
// owner never pays for the full ring. The zero value has capacity zero;
// use New.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest value once the ring is full
	max  int
}

// New returns an empty ring of the given capacity.
func New[T any](capacity int) Ring[T] { return Ring[T]{max: capacity} }

// Push appends v. Once the ring is full it overwrites the oldest value and
// returns it with evicted set.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	if len(r.buf) < r.max {
		r.buf = append(r.buf, v)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	return old, true
}

// Slice returns a copy of the held values, oldest first.
func (r *Ring[T]) Slice() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
