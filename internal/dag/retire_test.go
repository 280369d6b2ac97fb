package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"grout/internal/memmodel"
)

// refGraph is the graph as it was before it retired anything: every vertex
// is kept for ever and Add filters redundant candidates by walking the full
// history. It is the oracle the retiring Graph must agree with on every
// parent list — the role interp.go plays for the compiled kernel engine.
type refGraph struct {
	arrays map[ArrayID]*refArray
	size   int
	edges  int
}

type refVertex struct {
	id      CEID
	parents []*refVertex
}

type refArray struct {
	lastWriter *refVertex
	readers    map[CEID]*refVertex
}

func newRefGraph() *refGraph { return &refGraph{arrays: make(map[ArrayID]*refArray)} }

func (g *refGraph) dropArray(id ArrayID) { delete(g.arrays, id) }

// add inserts CE id and returns its filtered parents' IDs, ascending.
func (g *refGraph) add(id CEID, accs []Access) []CEID {
	cands := map[CEID]*refVertex{}
	for _, acc := range accs {
		st := g.arrays[acc.Array]
		if st == nil {
			continue
		}
		if st.lastWriter != nil && (acc.Mode.Reads() || acc.Mode.Writes()) {
			cands[st.lastWriter.id] = st.lastWriter // RAW, WAW
		}
		if acc.Mode.Writes() {
			for rid, r := range st.readers {
				cands[rid] = r // WAR
			}
		}
	}
	// A candidate is redundant when another candidate reaches it. Edges
	// point to smaller IDs, so nothing below the smallest candidate can
	// lead back to one.
	minID := CEID(1) << 62
	for cid := range cands {
		minID = min(minID, cid)
	}
	seen := map[CEID]bool{}
	var stack []*refVertex
	for _, c := range cands {
		stack = append(stack, c.parents...)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v.id >= minID && !seen[v.id] {
			seen[v.id] = true
			stack = append(stack, v.parents...)
		}
	}
	v := &refVertex{id: id}
	for cid, c := range cands {
		if !seen[cid] {
			v.parents = append(v.parents, c)
		}
	}
	slices.SortFunc(v.parents, func(a, b *refVertex) int { return int(a.id - b.id) })
	g.size++
	g.edges += len(v.parents)

	for _, acc := range accs {
		st := g.arrays[acc.Array]
		if st == nil {
			st = &refArray{readers: map[CEID]*refVertex{}}
			g.arrays[acc.Array] = st
		}
		if acc.Mode.Writes() {
			st.lastWriter = v
			clear(st.readers)
		} else if acc.Mode.Reads() {
			st.readers[id] = v
		}
	}
	ids := make([]CEID, len(v.parents))
	for i, p := range v.parents {
		ids[i] = p.id
	}
	return ids
}

// newWithHorizon is New with a smaller retirement queue, so short programs
// reach the contraction code.
func newWithHorizon(h int) *Graph {
	g := New()
	g.horizon = h
	return g
}

// TestRetireContractionKeepsFilterExact is ISSUE 15's hazard 1 by name: R
// is the only path by which B reaches A. Once R retires, B must have
// inherited R's edge to A, or N — reading what A and B wrote — gets both as
// parents instead of B alone and the worker's stream choice for N changes.
func TestRetireContractionKeepsFilterExact(t *testing.T) {
	const x, y, z, w = 1, 2, 3, 4
	g := newWithHorizon(1)
	a, _ := add(g, "A", wr(x), wr(z))
	r, anc := add(g, "R", rd(z), wr(y))
	if !slices.Equal(anc, []CEID{a.ID}) {
		t.Fatalf("R's parents = %v, want [A]", anc)
	}
	c, _ := add(g, "C", wr(z)) // R leaves Z's readers
	b, anc := add(g, "B", wr(y))
	if !slices.Equal(anc, []CEID{r.ID}) { // R stops being Y's last writer
		t.Fatalf("B's parents = %v, want [R]", anc)
	}
	aID, bID, rID := a.ID, b.ID, r.ID
	for _, ce := range []*CE{a, r, c, b} {
		g.Complete(ce)
	}
	// R is now retirable and waiting; one more retirable vertex pushes it
	// past the horizon.
	d, _ := add(g, "D", wr(w))
	e, _ := add(g, "E", wr(w))
	g.Complete(d)
	g.Complete(e)
	if g.Vertex(rID) != nil {
		t.Fatal("R is still held; the case below would not exercise contraction")
	}
	if got := g.Vertex(bID).Parents(); len(got) != 1 || got[0].CE.ID != aID {
		t.Fatalf("after R retired, B's parents = %v, want [A] (R's edge spliced in)", got)
	}
	_, anc = add(g, "N", rd(x), rd(y))
	if !slices.Equal(anc, []CEID{bID}) {
		t.Fatalf("N's parents = %v, want [B] alone: B still reaches A through the retired R", anc)
	}
	if g.Size() != 7 || g.Live() != 6 {
		t.Fatalf("Size/Live = %d/%d, want 7 ever added, 6 held", g.Size(), g.Live())
	}
}

// TestRetireOracle is the property the whole design rests on: over seeded
// random programs — 1 to 16 arrays alive at a time, 1 to 4 accesses per CE
// in random modes, completions reported in random order with random lag,
// arrays freed at random — the retiring graph returns exactly the parent
// list the never-retiring reference returns, for every Add; Size and Edges
// agree; and Live stays within what the retirement rule allows.
func TestRetireOracle(t *testing.T) {
	cases := []struct{ horizon, ces int }{
		{1, 3000}, {7, 3000}, {64, 4000}, {RetireHorizon, 3 * RetireHorizon},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("horizon%d/seed%d", tc.horizon, seed), func(t *testing.T) {
				runOracle(t, tc.horizon, tc.ces, seed)
			})
		}
	}
}

func runOracle(t *testing.T, horizon, ces int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	g, ref := newWithHorizon(horizon), newRefGraph()

	arrays := []ArrayID{1}
	nextArray := ArrayID(2)
	// inflight are the CEs not yet reported complete, with the number of
	// parents each was given.
	type flying struct {
		ce      *CE
		parents int
	}
	var inflight []flying
	maxLag := 1 + rng.Intn(48)
	retired := false

	for i := 0; i < ces; i++ {
		// Allocate and free arrays at random; a freed ID never comes back.
		if len(arrays) < 16 && rng.Intn(8) == 0 {
			arrays = append(arrays, nextArray)
			nextArray++
		}
		if len(arrays) > 1 && rng.Intn(40) == 0 {
			k := rng.Intn(len(arrays))
			g.DropArray(arrays[k])
			ref.dropArray(arrays[k])
			arrays = slices.Delete(arrays, k, k+1)
		}

		accs := make([]Access, 1+rng.Intn(4))
		for k := range accs {
			accs[k] = Access{
				Array: arrays[rng.Intn(len(arrays))],
				Mode:  memmodel.AccessMode(rng.Intn(3)),
			}
		}
		ce := g.NewCE("ce", accs, nil)
		id := ce.ID
		var got []CEID
		for _, p := range g.Add(ce) {
			got = append(got, p.CE.ID)
		}
		want := ref.add(id, accs)
		if !slices.Equal(got, want) {
			t.Fatalf("CE %d %v: parents %v, reference says %v", id, accs, got, want)
		}
		inflight = append(inflight, flying{ce, len(got)})

		// Complete in random order, never letting more than maxLag wait.
		for len(inflight) > 0 && (len(inflight) > maxLag || rng.Intn(3) == 0) {
			k := rng.Intn(len(inflight))
			g.Complete(inflight[k].ce)
			inflight = slices.Delete(inflight, k, k+1)
		}

		if g.Size() != ref.size || g.Edges() != ref.edges {
			t.Fatalf("after CE %d: Size/Edges = %d/%d, reference %d/%d",
				id, g.Size(), g.Edges(), ref.size, ref.edges)
		}
		if i%97 == 0 {
			// Every held vertex is on the frontier, in flight, the parent
			// of something in flight, or one of the horizon's.
			bound := len(g.Frontier()) + len(inflight) + horizon
			for _, f := range inflight {
				bound += f.parents
			}
			if g.Live() > bound {
				t.Fatalf("after CE %d: Live = %d, rule allows %d", id, g.Live(), bound)
			}
			if _, err := g.TopoOrder(); err != nil {
				t.Fatal(err)
			}
		}
		retired = retired || g.Live() < g.Size()
	}
	if !retired {
		t.Fatal("nothing was ever retired; the run proved nothing")
	}
}

// TestDropArrayReleasesFrontier: an array's accessors stop being frontier
// once the array is dropped, so a program that allocates, computes and
// frees in a loop holds no more after 10 000 rounds than after the first
// few thousand.
func TestDropArrayReleasesFrontier(t *testing.T) {
	g := New()
	run := func(label string, accs ...Access) {
		ce, _ := add(g, label, accs...)
		g.Complete(ce)
	}
	run("init", wr(1))
	id := ArrayID(2)
	rounds := func(n int) {
		for end := id + ArrayID(n); id < end; id++ {
			run("produce", rd(1), wr(id))
			run("consume", rd(id))
			g.DropArray(id)
			// Array 1 is only ever read by the loop, and the readers of an
			// array nobody rewrites are its frontier (the documented
			// residue) — so something rewrites it now and then.
			if id%100 == 0 {
				run("refresh", wr(1))
			}
		}
	}
	rounds(5000) // past the horizon: Live has reached its plateau
	live, frontier := g.Live(), len(g.Frontier())
	rounds(10000)
	if got := g.Live(); got != live {
		t.Errorf("Live = %d after 10 000 more alloc/launch/free rounds, was %d", got, live)
	}
	if got := len(g.Frontier()); got != frontier {
		t.Errorf("frontier = %d vertices after 10 000 more rounds, was %d", got, frontier)
	}
	if live > RetireHorizon+300 {
		t.Errorf("Live = %d, want at most the horizon (%d) plus one refresh period", live, RetireHorizon)
	}
}

// TestRecycledCEKeepsPayload pins the contract owners rely on to reuse
// their per-CE record: a CE handed out again carries a fresh ID, label and
// access list but the Payload of its previous life, Record resets and
// returns that one, and NewCE+Record+Add+Complete allocate nothing once the
// free list is primed.
func TestRecycledCEKeepsPayload(t *testing.T) {
	g := newWithHorizon(1)
	type record struct{ n int }
	for i := 0; i < 8; i++ {
		ce := g.NewCE("w", []Access{rw(1)}, nil)
		if rec := Record[record](ce); rec.n != 0 {
			t.Fatalf("Record handed CE %d a record that was not reset: %+v", ce.ID, rec)
		}
		ce.Payload.(*record).n = i + 1
		g.Add(ce)
		g.Complete(ce)
	}
	ce := g.NewCE("probe", []Access{rd(7), wr(8)}, nil)
	rec, ok := ce.Payload.(*record)
	if !ok || rec.n == 0 {
		t.Fatalf("recycled CE's Payload = %#v, want the record of an earlier CE", ce.Payload)
	}
	if Record[record](ce) != rec || rec.n != 0 {
		t.Fatalf("Record did not reuse and reset the recycled record: %+v", rec)
	}
	if ce.ID != 9 || ce.Label != "probe" || len(ce.Accesses) != 2 || ce.Accesses[1] != wr(8) {
		t.Fatalf("recycled CE = %+v, want a fresh identity", ce)
	}
	g.Add(ce)
	g.Complete(ce)

	accs := []Access{rw(1)}
	allocs := testing.AllocsPerRun(1000, func() {
		ce := g.NewCE("w", accs, nil)
		Record[record](ce)
		g.Add(ce)
		g.Complete(ce)
	})
	if allocs != 0 {
		t.Fatalf("NewCE+Add+Complete allocates %.1f objects per CE in the steady state, want 0", allocs)
	}
}
