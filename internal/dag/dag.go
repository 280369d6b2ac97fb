// Package dag implements GrOUT's Computational Element (CE) dependency
// graph. A CE wraps a kernel launch or a host read/write on a
// framework-managed array (paper §IV-B). As the host program submits CEs,
// the graph derives true dependencies from array access modes (RAW, WAR,
// WAW), filters redundant edges (if B already depends on A, a new CE
// depending on both only links to B), and maintains the frontier — the set
// of CEs a future submission can still depend on.
//
// The same structure serves as the Controller's Global DAG and each
// Worker's Local DAG (paper Algorithms 1 and 2).
//
// Add is the scheduler's per-CE hot path (the paper's Figure 9 measures
// the surrounding overhead), so it is written to be allocation-free in the
// steady state: candidate gathering and the redundant-edge filter use
// epoch-stamped marks on the vertices plus reusable scratch buffers
// instead of per-call maps, and redundancy is resolved with one shared
// backward traversal per Add rather than one DFS per candidate pair.
// Vertices, per-array state, owner records and the first storage of every
// adjacency, reader and access list come from per-graph chunked slabs
// (slab.go), so even a short-lived graph — a sweep cell's few dozen CEs,
// which never reach the retirement horizon and so never recycle — pays a
// handful of allocations, not several per CE.
//
// The graph holds a CE only while something can still depend on it. Its
// owner reports each CE complete (Complete); a complete vertex that is off
// every array's frontier and whose children are all complete is retired:
// spliced out of its neighbours' adjacency lists and recycled (DESIGN.md
// §5.1, "State lifetime"). Add's answers are unaffected, and the read-side
// helpers (Vertex, TopoOrder, Roots, MaxDepth, DOT) describe the vertices
// still held.
package dag

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"grout/internal/memmodel"
)

// ArrayID identifies a framework-managed array, globally across the
// cluster.
type ArrayID int64

// CEID identifies a Computational Element in submission order.
type CEID int64

// Access records that a CE touches an array with a given mode.
type Access struct {
	Array ArrayID
	Mode  memmodel.AccessMode
}

// CE is a Computational Element: the unit the scheduler places on nodes
// and streams. Payload carries the owner's per-CE record (completion time,
// placement), opaque to the graph; it lives exactly as long as the CE's
// vertex does.
//
// A CE belongs to the graph that made it: once its vertex retires the
// struct is reused by a later NewCE, so an owner must not keep the pointer
// past the point where it reports the CE complete.
type CE struct {
	ID       CEID
	Label    string
	Accesses []Access
	Payload  any

	v *Vertex // set by NewCE or Add
}

func (ce *CE) String() string {
	return fmt.Sprintf("CE%d(%s)", ce.ID, ce.Label)
}

// Vertex is a CE plus its graph linkage. Both adjacency slices are
// maintained in ascending CE-ID order: parents are linked sorted at Add
// time, and children arrive in submission order, whose IDs only grow.
type Vertex struct {
	CE       *CE
	parents  []*Vertex
	children []*Vertex

	// candMark and seenMark are epoch stamps replacing per-Add scratch
	// maps: a mark equals the graph's current epoch iff the vertex is a
	// dependency candidate / was visited by the redundancy traversal of
	// the Add in progress.
	candMark uint64
	seenMark uint64

	// own backs CE for CEs made by NewCE: one slab slot per CE, and one
	// object to recycle. g is the graph the vertex belongs to (Record's
	// slab).
	own CE
	g   *Graph

	// Retirement state. refs counts the frontier slots naming the vertex
	// (lastWriter or readers entry, per array); pending counts its children
	// not yet complete. A vertex is retirable — and queued, once — when it
	// is complete with both at zero; none of the three can be undone.
	complete bool
	queued   bool
	refs     int32
	pending  int32
}

// Parents returns a copy of the vertex's direct ancestors, sorted by CE
// ID.
func (v *Vertex) Parents() []*Vertex {
	return append([]*Vertex(nil), v.parents...)
}

// Children returns a copy of the vertex's direct descendants, sorted by CE
// ID.
func (v *Vertex) Children() []*Vertex {
	return append([]*Vertex(nil), v.children...)
}

// NumParents reports the number of direct ancestors without copying.
func (v *Vertex) NumParents() int { return len(v.parents) }

// NumChildren reports the number of direct descendants without copying.
func (v *Vertex) NumChildren() int { return len(v.children) }

// EachParent visits the direct ancestors in ascending CE-ID order without
// allocating; returning false stops the walk. This is the iteration path
// hot loops use instead of Parents().
func (v *Vertex) EachParent(f func(*Vertex) bool) {
	for _, p := range v.parents {
		if !f(p) {
			return
		}
	}
}

// EachChild visits the direct descendants in ascending CE-ID order without
// allocating; returning false stops the walk.
func (v *Vertex) EachChild(f func(*Vertex) bool) {
	for _, c := range v.children {
		if !f(c) {
			return
		}
	}
}

func sortedVertices(m map[CEID]*Vertex) []*Vertex {
	out := make([]*Vertex, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CE.ID < out[j].CE.ID })
	return out
}

// arrayState tracks, per array, the CE that last wrote it and the readers
// since that write — exactly the live accessors a new CE can conflict
// with.
type arrayState struct {
	lastWriter *Vertex
	readers    []*Vertex
}

// RetireHorizon is how many retirable vertices the graph keeps before it
// starts dropping the oldest: small programs (the paper's Figure 5 DAGs,
// every shape test) stay fully inspectable, a long stream holds its
// frontier, its in-flight CEs and at most this many more. A constant, not a
// setting: nothing depends on its value but how much history can be looked
// at.
const RetireHorizon = 4096

// maxPooledEdges caps the adjacency capacity a recycled vertex keeps, so
// one wide fan-out does not pin its slices in the free list.
const maxPooledEdges = 64

// firstListCap is the least capacity a fresh child, reader or access list
// takes from its slab: two, an output and an input, so a recycled CE of
// the commonest kernels fits the next one's accesses without making every
// held vertex bigger. A list that outgrows it moves to the heap, as append
// does, and a recycled vertex keeps what it grew to.
const firstListCap = 2

// Graph is the CE dependency DAG. The zero value is not usable; call New.
type Graph struct {
	vertices map[CEID]*Vertex
	arrays   map[ArrayID]*arrayState
	nextID   CEID
	added    int
	edges    int

	// retirable[rhead:] queues the vertices nothing can depend on again,
	// oldest first; sweep retires those beyond horizon (RetireHorizon,
	// except in tests). free holds retired vertices for NewCE to reuse.
	retirable []*Vertex
	rhead     int
	horizon   int
	free      []*Vertex

	// epoch validates the vertices' candMark/seenMark stamps; it advances
	// once per Add, implicitly clearing every mark in O(1).
	epoch uint64
	// scratchCands and scratchStack are reused across Adds so the hot
	// path performs no per-call slice or map allocation.
	scratchCands []*Vertex
	scratchStack []*Vertex
	// scratchSplice is retire's merge buffer. scratchStates holds the
	// array states Add's candidate pass looked up, for its frontier pass.
	scratchSplice []*Vertex
	scratchStates []*arrayState

	// The slabs (slab.go). A list takes slab storage only while it has no
	// capacity of its own — a fresh vertex's or array's first — so chunks
	// are carved while the graph grows and recycling takes over after.
	// freeArrays holds dropped arrays' states for reuse; records is
	// Record's slab, of the owner's record type.
	vertexSlab slab[Vertex]
	arraySlab  slab[arrayState]
	edgeSlab   slab[*Vertex]
	accessSlab slab[Access]
	freeArrays []*arrayState
	records    any
}

// mapHint sizes a new graph's maps: a sweep cell's graph of a few dozen
// CEs and arrays never rehashes, and a stream grows past it once.
const mapHint = 64

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[CEID]*Vertex, mapHint),
		arrays:   make(map[ArrayID]*arrayState, mapHint),
		nextID:   1,
		horizon:  RetireHorizon,
	}
}

// Size reports the number of CEs ever added to the graph.
func (g *Graph) Size() int { return g.added }

// Live reports the number of CEs the graph currently holds: the frontier,
// the CEs something may still depend on, and up to RetireHorizon more.
func (g *Graph) Live() int { return len(g.vertices) }

// Edges reports the number of dependency edges ever added (after
// redundancy filtering).
func (g *Graph) Edges() int { return g.edges }

// Vertex returns the vertex for a CE ID, or nil if the graph never held or
// no longer holds it.
func (g *Graph) Vertex(id CEID) *Vertex { return g.vertices[id] }

// LastWriter returns the CE that most recently wrote the array, or nil if
// nothing in the graph has written it. Failover uses it to name the
// producer of lost data in diagnostics.
func (g *Graph) LastWriter(id ArrayID) *CE {
	if st := g.arrays[id]; st != nil && st.lastWriter != nil {
		return st.lastWriter.CE
	}
	return nil
}

// NewCE returns a CE with the next submission ID. The CE is not yet in
// the graph; pass it to Add. accesses is copied, so the caller may reuse
// its slice.
//
// The CE may be a retired one, reused. With a nil payload it then still
// carries the Payload of its previous life, so an owner that hangs a record
// there can reuse the record instead of allocating one per CE (see Record).
func (g *Graph) NewCE(label string, accesses []Access, payload any) *CE {
	var v *Vertex
	if n := len(g.free); n > 0 {
		v, g.free[n-1] = g.free[n-1], nil
		g.free = g.free[:n-1]
	} else {
		v = g.vertexSlab.one()
		v.g = g
	}
	ce := &v.own
	v.CE, ce.v = ce, v
	ce.ID, ce.Label = g.nextID, label
	if cap(ce.Accesses) == 0 {
		ce.Accesses = g.accessSlab.take(max(len(accesses), firstListCap))
	}
	ce.Accesses = append(ce.Accesses[:0], accesses...)
	if payload != nil {
		ce.Payload = payload
	}
	g.nextID++
	return ce
}

// Record returns the owner's per-CE record of type T for a CE fresh from
// NewCE, zeroed: the one a recycled CE still carries, or a new one from the
// graph's record slab, which it hangs on ce.Payload. Read it back with
// ce.Payload.(*T). The slab holds one record type: a graph whose owner
// keeps one kind of record (the controller, a worker runtime) allocates a
// chunk per many CEs.
func Record[T any](ce *CE) *T {
	rec, ok := ce.Payload.(*T)
	if ok {
		*rec = *new(T)
		return rec
	}
	g := ce.v.g
	recs, ok := g.records.(*slab[T])
	if !ok {
		recs = new(slab[T])
		g.records = recs
	}
	rec = recs.one()
	ce.Payload = rec
	return rec
}

// Add inserts a CE into the graph, computes its dependencies against the
// frontier, filters redundant edges and updates the frontier (the
// dependency half of paper Algorithm 1). It returns the CE's direct
// ancestors after filtering, sorted by ID.
//
// The returned slice is the vertex's own parent list: callers must treat
// it as read-only. It stays valid, across later Adds, until the CE is
// reported complete.
func (g *Graph) Add(ce *CE) []*Vertex {
	if _, dup := g.vertices[ce.ID]; dup {
		panic(fmt.Sprintf("dag: duplicate CE %d", ce.ID))
	}
	v := ce.v
	if v == nil { // a CE built by hand rather than by NewCE
		v = g.vertexSlab.one()
		v.CE, v.g = ce, g
		ce.v = v
	}
	g.epoch++

	// Gather candidate ancestors from per-array live accessors,
	// deduplicated by epoch mark.
	cands := g.scratchCands[:0]
	addCand := func(c *Vertex) {
		if c.candMark != g.epoch {
			c.candMark = g.epoch
			cands = append(cands, c)
		}
	}
	states := g.scratchStates[:0]
	for _, acc := range ce.Accesses {
		st := g.arrays[acc.Array]
		states = append(states, st)
		if st == nil {
			continue
		}
		if acc.Mode.Reads() && st.lastWriter != nil {
			addCand(st.lastWriter) // RAW
		}
		if acc.Mode.Writes() {
			if st.lastWriter != nil {
				addCand(st.lastWriter) // WAW
			}
			for _, r := range st.readers {
				addCand(r) // WAR
			}
		}
	}
	slices.SortFunc(cands, func(a, b *Vertex) int { return cmp.Compare(a.CE.ID, b.CE.ID) })

	// filterRedundant: drop any candidate reachable from another
	// candidate (paper: "A and B have dependencies against a new CE
	// called C, but B depends on A" — keep only B). One backward
	// traversal seeded at every candidate's parents marks exactly the
	// strict ancestors of candidates; a marked candidate is redundant.
	// Edges point to smaller IDs, so the walk prunes below the smallest
	// candidate.
	if len(cands) > 1 {
		minID := cands[0].CE.ID
		stack := g.scratchStack[:0]
		visit := func(p *Vertex) {
			if p.CE.ID >= minID && p.seenMark != g.epoch {
				p.seenMark = g.epoch
				stack = append(stack, p)
			}
		}
		for _, c := range cands {
			for _, p := range c.parents {
				visit(p)
			}
		}
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range top.parents {
				visit(p)
			}
		}
		g.scratchStack = stack[:0]
		kept := cands[:0]
		for _, c := range cands {
			if c.seenMark != g.epoch {
				kept = append(kept, c)
			}
		}
		cands = kept
	}

	// addEdges: the filtered candidates become the vertex's parent list
	// (already sorted ascending).
	if len(cands) > 0 {
		if cap(v.parents) == 0 {
			v.parents = g.edgeSlab.take(len(cands))
		}
		v.parents = append(v.parents[:0], cands...)
		for _, p := range cands {
			if cap(p.children) == 0 {
				p.children = g.edgeSlab.take(firstListCap)
			}
			p.children = append(p.children, v)
			p.pending++
		}
		g.edges += len(cands)
	}
	g.scratchCands = cands[:0]
	g.vertices[ce.ID] = v
	g.added++

	// updateFrontier: refresh per-array live accessors. A vertex a write
	// displaces loses that frontier slot and may become retirable.
	for i, acc := range ce.Accesses {
		st := states[i]
		if st == nil {
			// New to the graph — unless an earlier access of this CE
			// named the array too and made its state already.
			if st = g.arrays[acc.Array]; st == nil {
				st = g.newArrayState()
				g.arrays[acc.Array] = st
			}
		}
		if acc.Mode.Writes() {
			g.releaseReaders(st)
			if st.lastWriter != v {
				g.release(st.lastWriter)
				st.lastWriter = v
				v.refs++
			}
		} else if acc.Mode.Reads() {
			// Only v is appended during this Add, so a second read of
			// the same array can only find v as the last entry.
			if n := len(st.readers); n == 0 || st.readers[n-1] != v {
				if cap(st.readers) == 0 {
					st.readers = g.edgeSlab.take(firstListCap)
				}
				st.readers = append(st.readers, v)
				v.refs++
			}
		}
	}
	g.scratchStates = states[:0] // the states stay the graph's; nothing to clear
	g.sweep()

	return v.parents
}

// release takes one frontier slot away from v (nil is a no-op).
func (g *Graph) release(v *Vertex) {
	if v != nil {
		v.refs--
		g.maybeRetire(v)
	}
}

func (g *Graph) releaseReaders(st *arrayState) {
	for i, r := range st.readers {
		st.readers[i] = nil
		g.release(r)
	}
	st.readers = st.readers[:0]
}

// DropArray forgets a freed array: its last writer and readers leave the
// frontier. The caller guarantees no later CE names the array (array IDs
// are never reused).
func (g *Graph) DropArray(id ArrayID) {
	st := g.arrays[id]
	if st == nil {
		return
	}
	delete(g.arrays, id)
	g.releaseReaders(st)
	g.release(st.lastWriter)
	st.lastWriter, st.readers = nil, pooled(st.readers)
	if len(g.freeArrays) < RetireHorizon { // as many as the vertex free list
		g.freeArrays = append(g.freeArrays, st)
	}
	g.sweep()
}

// newArrayState returns an empty array state: a dropped array's, whose
// reader list keeps its storage, or a fresh one from the slab.
func (g *Graph) newArrayState() *arrayState {
	if n := len(g.freeArrays); n > 0 {
		st := g.freeArrays[n-1]
		g.freeArrays[n-1] = nil
		g.freeArrays = g.freeArrays[:n-1]
		return st
	}
	return g.arraySlab.one()
}

// Complete records that ce has finished: its owner will not ask for it by
// pointer again except as the parent of a CE that is not itself complete.
// That is what lets the graph retire it. Completing a CE twice is harmless.
func (g *Graph) Complete(ce *CE) {
	v := ce.v
	if v == nil || v.CE != ce || v.complete {
		return
	}
	v.complete = true
	for _, p := range v.parents {
		p.pending--
		g.maybeRetire(p)
	}
	g.maybeRetire(v)
	g.sweep()
}

// maybeRetire queues v once nothing can depend on it again: it is complete
// (nobody waits for it), off every array's frontier (no later Add can pick
// it as a candidate, so its child set is final) and all its children are
// complete (nobody will read its record, or its children's parent lists,
// again). Queuing changes no adjacency list, so callers may be walking one.
func (g *Graph) maybeRetire(v *Vertex) {
	if v.complete && v.refs == 0 && v.pending == 0 && !v.queued {
		v.queued = true
		g.retirable = append(g.retirable, v)
	}
}

// sweep retires the queued vertices beyond the horizon, oldest first. It
// runs at the end of every operation that can queue one.
func (g *Graph) sweep() {
	for len(g.retirable)-g.rhead > g.horizon {
		v := g.retirable[g.rhead]
		g.retirable[g.rhead] = nil
		g.rhead++
		g.retire(v)
	}
	// Slide the queue back once the dead prefix is as long as the queue
	// may get: amortised O(1) per retirement, storage at most 2× horizon.
	if g.rhead > g.horizon {
		n := copy(g.retirable, g.retirable[g.rhead:])
		clear(g.retirable[n:])
		g.retirable, g.rhead = g.retirable[:n], 0
	}
}

// retire contracts v out of the graph: every child gets v's parents in
// v's place and every parent v's children, so any two remaining vertices
// are connected exactly when they were before — which is all Add's
// redundant-edge filter ever asks of the structure. The vertex and its CE
// then go to the free list.
func (g *Graph) retire(v *Vertex) {
	for _, c := range v.children {
		c.parents = g.splice(c.parents, v, v.parents)
	}
	for _, p := range v.parents {
		p.children = g.splice(p.children, v, v.children)
	}
	delete(g.vertices, v.CE.ID)
	if len(g.free) == RetireHorizon {
		return // a burst retired more than a stream will reuse; let it go
	}
	accs, payload := v.own.Accesses, v.own.Payload
	*v = Vertex{parents: pooled(v.parents), children: pooled(v.children), g: g}
	v.own.Accesses, v.own.Payload = accs[:0], payload
	g.free = append(g.free, v)
}

// pooled empties an adjacency list for reuse, dropping outsized storage.
func pooled(list []*Vertex) []*Vertex {
	if cap(list) > maxPooledEdges {
		return nil
	}
	clear(list)
	return list[:0]
}

// splice returns list without drop and with every vertex of add merged in,
// in ascending CE-ID order without duplicates. list and add are sorted;
// the result reuses list's storage.
func (g *Graph) splice(list []*Vertex, drop *Vertex, add []*Vertex) []*Vertex {
	out := g.scratchSplice[:0]
	i, j := 0, 0
	for i < len(list) || j < len(add) {
		switch {
		case i < len(list) && list[i] == drop:
			i++
		case j == len(add) || (i < len(list) && list[i].CE.ID < add[j].CE.ID):
			out = append(out, list[i])
			i++
		case i == len(list) || add[j].CE.ID < list[i].CE.ID:
			out = append(out, add[j])
			j++
		default: // on both sides
			out = append(out, list[i])
			i++
			j++
		}
	}
	g.scratchSplice = out[:0]
	n := len(list)
	list = append(list[:0], out...)
	if len(list) < n {
		clear(list[len(list):n])
	}
	return list
}

// reaches reports whether target is an ancestor of (reachable backwards
// from) from. Dependencies always point from ancestor to descendant, and
// descendants have larger IDs, so the walk prunes on ID. It is used by
// invariant checks; Add's redundancy filter uses the shared-mark
// traversal instead.
func (g *Graph) reaches(from *Vertex, target CEID) bool {
	if from.CE.ID <= target {
		return false
	}
	seen := map[CEID]bool{from.CE.ID: true}
	stack := []*Vertex{from}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range v.parents {
			id := p.CE.ID
			if id == target {
				return true
			}
			if !seen[id] && id > target {
				seen[id] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// Frontier returns the CEs a future submission could depend on: every
// array's last writer and post-write readers, deduplicated and sorted.
func (g *Graph) Frontier() []*Vertex {
	set := make(map[CEID]*Vertex)
	for _, st := range g.arrays {
		if st.lastWriter != nil {
			set[st.lastWriter.CE.ID] = st.lastWriter
		}
		for _, r := range st.readers {
			set[r.CE.ID] = r
		}
	}
	return sortedVertices(set)
}

// TopoOrder returns the held CEs in a topological order (submission-ID
// order is one, since edges only point forward; this validates that
// invariant).
func (g *Graph) TopoOrder() ([]*CE, error) {
	ids := make([]CEID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []*CE
	for _, id := range ids {
		v := g.vertices[id]
		for _, p := range v.parents {
			if p.CE.ID >= id {
				return nil, fmt.Errorf("dag: edge %d -> %d violates submission order", p.CE.ID, id)
			}
		}
		out = append(out, v.CE)
	}
	return out, nil
}

// Roots returns the held CEs with no (held) parents, sorted by ID.
func (g *Graph) Roots() []*Vertex {
	set := make(map[CEID]*Vertex)
	for id, v := range g.vertices {
		if len(v.parents) == 0 {
			set[id] = v
		}
	}
	return sortedVertices(set)
}

// MaxDepth returns the length (in vertices) of the longest dependency
// chain among the held CEs — the critical path of the workload's
// structure.
func (g *Graph) MaxDepth() int {
	depth := make(map[CEID]int, len(g.vertices))
	ids := make([]CEID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	max := 0
	for _, id := range ids {
		v := g.vertices[id]
		d := 1
		for _, p := range v.parents {
			if depth[p.CE.ID]+1 > d {
				d = depth[p.CE.ID] + 1
			}
		}
		depth[id] = d
		if d > max {
			max = d
		}
	}
	return max
}

// DOT renders the held graph in Graphviz format (the paper's Figure 5
// shows exactly these CE-dependency DAGs). Vertices are labelled with
// their CE label and ID.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=circle fontsize=10];\n", name)
	ids := make([]CEID, 0, len(g.vertices))
	for id := range g.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		v := g.vertices[id]
		fmt.Fprintf(&b, "  n%d [label=%q];\n", id, fmt.Sprintf("%s\n#%d", v.CE.Label, id))
	}
	for _, id := range ids {
		for _, child := range g.vertices[id].children {
			fmt.Fprintf(&b, "  n%d -> n%d;\n", id, child.CE.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
