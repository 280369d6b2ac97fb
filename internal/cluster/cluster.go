// Package cluster models the distributed system GrOUT runs on: a
// controller node plus N GPU-equipped worker nodes joined by an
// interconnect with per-pair bandwidth. Network transfers occupy the
// sender's egress NIC and the receiver's ingress NIC, so concurrent
// transfers to distinct peers overlap while transfers sharing an endpoint
// queue — the property min-transfer-time scheduling exploits.
package cluster

import (
	"fmt"

	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// NodeID identifies an endpoint. ControllerID is the controller; workers
// are numbered from 1.
type NodeID int

// ControllerID is the controller endpoint's ID.
const ControllerID NodeID = 0

func (id NodeID) String() string {
	if id == ControllerID {
		return "controller"
	}
	return fmt.Sprintf("worker%d", int(id))
}

// IsWorker reports whether the ID names a worker.
func (id NodeID) IsWorker() bool { return id > 0 }

// Spec describes a cluster: the controller's NIC, each worker's node spec
// and NIC, and optional per-pair bandwidth overrides.
type Spec struct {
	// ControllerEgressBW and ControllerIngressBW are the controller NIC
	// bandwidths in bytes/second (the paper's controller peaks at
	// 8000 Mbit/s ~= 1 GB/s).
	ControllerEgressBW  float64
	ControllerIngressBW float64
	// WorkerNICBW is the per-worker NIC bandwidth (4000 Mbit/s ~= 500
	// MB/s in the paper's OCI setup).
	WorkerNICBW float64
	// Latency is the one-way network latency added to every transfer.
	Latency sim.VirtualTime
	// Workers are the GPU node specifications.
	Workers []gpusim.NodeSpec
	// PairBW optionally overrides bandwidth for a directed pair,
	// modelling heterogeneous interconnects or VNIC SLAs (§IV-D).
	PairBW map[[2]NodeID]float64
}

// PaperSpec returns the paper's OCI deployment with n workers: two-V100
// workers at 4000 Mbit/s, controller at 8000 Mbit/s, 250 µs latency.
func PaperSpec(workers int) Spec {
	s := Spec{
		ControllerEgressBW:  1e9,
		ControllerIngressBW: 1e9,
		WorkerNICBW:         500e6,
		Latency:             sim.VirtualTime(250_000), // 250 µs
	}
	for i := 0; i < workers; i++ {
		s.Workers = append(s.Workers, gpusim.OCIWorkerSpec(fmt.Sprintf("worker%d", i+1)))
	}
	return s
}

// Cluster is the instantiated simulation state.
type Cluster struct {
	spec    Spec
	workers []*gpusim.Node
	egress  map[NodeID]*sim.Timeline
	ingress map[NodeID]*sim.Timeline
}

// New builds a cluster from its spec.
func New(spec Spec) *Cluster {
	c := &Cluster{
		spec:    spec,
		egress:  make(map[NodeID]*sim.Timeline),
		ingress: make(map[NodeID]*sim.Timeline),
	}
	c.egress[ControllerID] = sim.NewTimeline("controller/egress")
	c.ingress[ControllerID] = sim.NewTimeline("controller/ingress")
	for i, ws := range spec.Workers {
		id := NodeID(i + 1)
		c.workers = append(c.workers, gpusim.NewNode(ws))
		c.egress[id] = sim.NewTimeline(id.String() + "/egress")
		c.ingress[id] = sim.NewTimeline(id.String() + "/ingress")
	}
	return c
}

// Spec returns the cluster's specification.
func (c *Cluster) Spec() Spec { return c.spec }

// WorkerCount reports the number of workers.
func (c *Cluster) WorkerCount() int { return len(c.workers) }

// Workers returns all worker node IDs in order.
func (c *Cluster) Workers() []NodeID {
	ids := make([]NodeID, len(c.workers))
	for i := range c.workers {
		ids[i] = NodeID(i + 1)
	}
	return ids
}

// Worker returns the simulated GPU node behind a worker ID; it panics on a
// non-worker ID (scheduler bug).
func (c *Cluster) Worker(id NodeID) *gpusim.Node {
	if !id.IsWorker() || int(id) > len(c.workers) {
		panic(fmt.Sprintf("cluster: no worker %d", int(id)))
	}
	return c.workers[id-1]
}

// Bandwidth reports the effective bytes/second for a directed transfer
// from src to dst: the pair override if present, otherwise the minimum of
// the endpoint NIC rates.
func (c *Cluster) Bandwidth(src, dst NodeID) float64 {
	if bw, ok := c.spec.PairBW[[2]NodeID{src, dst}]; ok {
		return bw
	}
	out := c.spec.WorkerNICBW
	if src == ControllerID {
		out = c.spec.ControllerEgressBW
	}
	in := c.spec.WorkerNICBW
	if dst == ControllerID {
		in = c.spec.ControllerIngressBW
	}
	if in < out {
		return in
	}
	return out
}

// EstimateTransfer predicts the duration of moving n bytes from src to dst
// with an idle network. The min-transfer-time policy uses this to build
// its interconnection matrix.
func (c *Cluster) EstimateTransfer(src, dst NodeID, n memmodel.Bytes) sim.VirtualTime {
	if src == dst || n <= 0 {
		return 0
	}
	bw := c.Bandwidth(src, dst)
	if bw <= 0 {
		return sim.Infinity
	}
	return c.spec.Latency + sim.VirtualTime(float64(n)/bw*1e9)
}

// EstimateTransferAll fills out[dst] with EstimateTransfer(src, dst, n)
// for every dst in dsts (out is indexed by NodeID). When the spec has no
// per-pair overrides the estimate depends only on whether dst is the
// controller, so the common case is one bandwidth computation amortized
// over all destinations.
func (c *Cluster) EstimateTransferAll(src NodeID, n memmodel.Bytes, dsts []NodeID, out []sim.VirtualTime) {
	if len(c.spec.PairBW) != 0 {
		for _, dst := range dsts {
			out[dst] = c.EstimateTransfer(src, dst, n)
		}
		return
	}
	// No overrides: all worker destinations share one rate.
	workerEst := c.EstimateTransfer(src, pickWorkerDst(src, dsts), n)
	for _, dst := range dsts {
		switch {
		case dst == src:
			out[dst] = 0
		case dst == ControllerID:
			out[dst] = c.EstimateTransfer(src, dst, n)
		default:
			out[dst] = workerEst
		}
	}
}

// pickWorkerDst returns a worker destination distinct from src to probe
// the shared worker rate (any one will do; ControllerID if none exists).
func pickWorkerDst(src NodeID, dsts []NodeID) NodeID {
	for _, d := range dsts {
		if d != src && d.IsWorker() {
			return d
		}
	}
	return ControllerID
}

// Transfer simulates moving n bytes from src to dst, not before ready.
// Each endpoint's NIC is occupied for the time *it* needs to push or pull
// the bytes at its own line rate, while the transfer completes at the
// pair's bottleneck rate — so a controller with a 2× NIC feeds two workers
// concurrently, which is exactly why the paper provisions it that way
// (8 Gbit/s vs the workers' 4 Gbit/s).
func (c *Cluster) Transfer(src, dst NodeID, n memmodel.Bytes, ready sim.VirtualTime) sim.Interval {
	if src == dst || n <= 0 {
		return sim.Interval{Start: ready, End: ready}
	}
	pairBW := c.Bandwidth(src, dst)
	egressBW := c.endpointBW(src, true)
	ingressBW := c.endpointBW(dst, false)

	start := sim.Max(ready, sim.Max(c.egress[src].FreeAt(), c.ingress[dst].FreeAt()))
	c.egress[src].Reserve(start, sim.VirtualTime(float64(n)/egressBW*1e9))
	c.ingress[dst].Reserve(start, sim.VirtualTime(float64(n)/ingressBW*1e9))
	end := start + c.spec.Latency + sim.VirtualTime(float64(n)/pairBW*1e9)
	return sim.Interval{Start: start, End: end}
}

// endpointBW reports a node's NIC line rate in the given direction.
func (c *Cluster) endpointBW(id NodeID, egress bool) float64 {
	if id == ControllerID {
		if egress {
			return c.spec.ControllerEgressBW
		}
		return c.spec.ControllerIngressBW
	}
	return c.spec.WorkerNICBW
}

// InterconnectMatrix returns the bandwidth matrix (bytes/second) between
// all endpoints, as GrOUT constructs at initialization (§IV-D,
// min-transfer-time). Index 0 is the controller.
func (c *Cluster) InterconnectMatrix() [][]float64 {
	n := len(c.workers) + 1
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			m[i][j] = c.Bandwidth(NodeID(i), NodeID(j))
		}
	}
	return m
}
