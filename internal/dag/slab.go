package dag

// Chunk sizes of a slab: the first chunk holds slabFirst values and each
// next one twice as many, up to slabMax. A graph of a few dozen CEs pays a
// handful of allocations per slab, a long stream one per slabMax values
// until the free lists take over.
const (
	slabFirst = 8
	slabMax   = 256
)

// slab hands out storage for values of type T from chunks it never moves
// or reuses, so a pointer or slice into a chunk stays valid for as long as
// its holder keeps it. A chunk is freed by the garbage collector once
// nothing refers into it. The zero value is ready to use.
type slab[T any] struct {
	free []T // the current chunk's unused tail
	next int // length of the next chunk
}

// one returns a pointer to a zero T.
func (s *slab[T]) one() *T {
	return &s.take(1)[:1][0]
}

// take returns an empty slice with capacity n over zeroed storage. It is
// full-capped, so appending past n moves it to the heap rather than into
// a neighbour's storage.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		size := max(s.next, slabFirst)
		s.next = min(2*size, slabMax)
		s.free = make([]T, max(size, n))
	}
	out := s.free[:0:n]
	s.free = s.free[n:]
	return out
}
