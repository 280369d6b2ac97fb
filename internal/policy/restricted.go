package policy

// Restricted clamps any policy to a fixed worker subset — the placement
// guard of the sharded control plane (DESIGN.md §5.8). A shard
// controller's fabric view already only contains its partition, so the
// wrapper is defense in depth: even a policy that misbehaves (or a
// Request built against a wider view) can never place a CE outside the
// shard's workers. Candidates outside the subset are filtered before the
// inner policy sees them, and an out-of-subset answer is clamped
// round-robin onto the allowed workers.

import (
	"sort"

	"grout/internal/cluster"
)

// Restricted wraps an inner Policy, constraining assignments to an
// allowed worker set. It forwards the optional extension the controller
// probes for (StallAware), so wrapping loses no stall view. Like all
// policies it is not safe for concurrent use.
type Restricted struct {
	inner   Policy
	allowed map[cluster.NodeID]struct{}
	order   []cluster.NodeID // sorted, for deterministic clamping
	rr      int
	scratch []NodeInfo
}

// Restrict wraps inner, allowing only the given workers. The slice is
// copied.
func Restrict(inner Policy, workers []cluster.NodeID) *Restricted {
	p := &Restricted{
		inner:   inner,
		allowed: make(map[cluster.NodeID]struct{}, len(workers)),
		order:   append([]cluster.NodeID(nil), workers...),
	}
	sort.Slice(p.order, func(i, j int) bool { return p.order[i] < p.order[j] })
	for _, w := range p.order {
		p.allowed[w] = struct{}{}
	}
	return p
}

// Name implements Policy.
func (p *Restricted) Name() string { return "restricted(" + p.inner.Name() + ")" }

// NeedsDataView implements Policy, forwarding the inner policy's answer.
func (p *Restricted) NeedsDataView() bool { return p.inner.NeedsDataView() }

// NeedsStallView implements StallAware when the inner policy does.
func (p *Restricted) NeedsStallView() bool {
	if sa, ok := p.inner.(StallAware); ok {
		return sa.NeedsStallView()
	}
	return false
}

// clampRR picks the next allowed worker round-robin: the fallback when
// filtering leaves no candidate or the inner policy answers outside the
// subset.
func (p *Restricted) clampRR() cluster.NodeID {
	w := p.order[p.rr%len(p.order)]
	p.rr++
	return w
}

// filter narrows req's candidates to the allowed set, into scratch (the
// controller reuses req.Nodes' backing array, so it must not be mutated
// or retained).
func (p *Restricted) filter(req Request) Request {
	n := 0
	for _, ni := range req.Nodes {
		if _, ok := p.allowed[ni.ID]; ok {
			n++
		}
	}
	if n == len(req.Nodes) {
		return req
	}
	p.scratch = p.scratch[:0]
	for _, ni := range req.Nodes {
		if _, ok := p.allowed[ni.ID]; ok {
			p.scratch = append(p.scratch, ni)
		}
	}
	req.Nodes = p.scratch
	// MaxUp was computed over the wider view; force the inner policy to
	// recompute it over the survivors.
	req.MaxUp = 0
	return req
}

// Assign implements Policy.
func (p *Restricted) Assign(req Request) cluster.NodeID {
	req = p.filter(req)
	if len(req.Nodes) == 0 {
		return p.clampRR()
	}
	w := p.inner.Assign(req)
	if _, ok := p.allowed[w]; !ok {
		return p.clampRR()
	}
	return w
}
