package policy

import (
	"grout/internal/cluster"
	"grout/internal/sim"
)

// StallAware is an optional Policy extension: a policy that returns true
// from NeedsStallView has NodeInfo.PredictedStall filled by the
// controller (an extra fabric query per candidate), pricing what UVM
// oversubscription would do to the kernel on each worker. Policies that
// do not implement the interface never pay for the prediction.
type StallAware interface {
	NeedsStallView() bool
}

// MinStallTime assigns the CE to the node minimizing transfer time plus
// predicted UVM migration stall. Unlike min-transfer-time it ranks every
// candidate, with no viability gate: the node holding the CE's data is
// exactly the one an oversubscription storm makes wrong, and a gate keyed
// on UpToDate would exclude the idle data-less worker the policy exists
// to steer toward. The transfer term already penalizes data-less nodes in
// proportion to what moving the data costs — the stall term is what the
// paper's oversubscription cliff adds on top.
type MinStallTime struct{}

// NewMinStallTime builds the policy.
func NewMinStallTime() *MinStallTime { return &MinStallTime{} }

// Name implements Policy.
func (p *MinStallTime) Name() string { return "min-stall-time" }

// NeedsDataView implements Policy.
func (p *MinStallTime) NeedsDataView() bool { return true }

// NeedsStallView implements StallAware.
func (p *MinStallTime) NeedsStallView() bool { return true }

// Assign implements Policy.
func (p *MinStallTime) Assign(req Request) cluster.NodeID {
	best := -1
	var bestCost sim.VirtualTime
	for i, n := range req.Nodes {
		cost := n.TransferTime + n.PredictedStall
		if best == -1 || cost < bestCost ||
			(cost == bestCost && n.ID < req.Nodes[best].ID) {
			best = i
			bestCost = cost
		}
	}
	return req.Nodes[best].ID
}

// AssignBatch implements BatchAssigner.
func (p *MinStallTime) AssignBatch(reqs []Request) []cluster.NodeID {
	out := make([]cluster.NodeID, len(reqs))
	for i, req := range reqs {
		out[i] = p.Assign(req)
	}
	return out
}
