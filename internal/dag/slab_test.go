package dag

import (
	"testing"

	"grout/internal/memmodel"
)

// A fresh graph takes its vertices, edges, accesses, array states and
// records from chunked slabs: a 1000-CE chain — each CE read-writing one
// array, reported complete as it goes — costs at most one allocation per
// CE, although nothing in a graph that young reaches the retirement
// horizon and recycles.
func TestDAGAllocBudget(t *testing.T) {
	const ces = 1000
	type rec struct{ end int64 }
	accs := []Access{{Array: 1, Mode: memmodel.ReadWrite}, {Array: 2, Mode: memmodel.Read}}
	allocs := testing.AllocsPerRun(10, func() {
		g := New()
		for i := 0; i < ces; i++ {
			ce := g.NewCE("chain", accs, nil)
			Record[rec](ce).end = int64(i)
			g.Add(ce)
			g.Complete(ce)
		}
		if g.Size() != ces {
			t.Fatalf("graph holds %d CEs, want %d", g.Size(), ces)
		}
	})
	per := allocs / ces
	t.Logf("%.3f allocations per CE", per)
	if per > 1 {
		t.Errorf("%.2f allocations per CE on a fresh graph, want at most 1", per)
	}
}

// A slab never hands out the same storage twice, and a slice it takes is
// full-capped: appending past it cannot write into a neighbour's.
func TestSlabTakeIsolated(t *testing.T) {
	var s slab[int]
	a := s.take(2)
	b := s.take(3)
	a = append(a, 1, 2)
	b = append(b, 3, 4, 5)
	a = append(a, 6) // outgrows its capacity: moves to the heap
	if b[0] != 3 || b[1] != 4 || b[2] != 5 {
		t.Fatalf("neighbour overwritten: %v", b)
	}
	if a[0] != 1 || a[1] != 2 || a[2] != 6 {
		t.Fatalf("grown list lost values: %v", a)
	}
	big := s.take(slabMax + 1) // larger than any chunk
	if cap(big) != slabMax+1 {
		t.Fatalf("take(%d) capacity %d", slabMax+1, cap(big))
	}
	p, q := s.one(), s.one()
	if p == q {
		t.Fatal("one returned the same slot twice")
	}
}
