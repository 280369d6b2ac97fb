package policy

import "grout/internal/cluster"

// BatchAssigner places several CEs in one call, exactly as len(reqs)
// sequential Assign calls would.
//
// Deprecated: the controller admits every CE by itself and never calls
// it; it is kept, with the implementations below, for benchmark/seams.go.
type BatchAssigner interface {
	AssignBatch(reqs []Request) []cluster.NodeID
}

// AssignBatch implements BatchAssigner.
func (p *MinTransferTime) AssignBatch(reqs []Request) []cluster.NodeID {
	out := make([]cluster.NodeID, len(reqs))
	for i, req := range reqs {
		out[i] = p.Assign(req)
	}
	return out
}

// AssignBatch implements BatchAssigner for min-transfer-size.
func (p *MinTransferSize) AssignBatch(reqs []Request) []cluster.NodeID {
	out := make([]cluster.NodeID, len(reqs))
	for i, req := range reqs {
		out[i] = p.Assign(req)
	}
	return out
}
