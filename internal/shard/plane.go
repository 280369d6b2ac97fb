package shard

// plane.go assembles the sharded control plane: one simulated worker
// fleet, N core.Controller shards each scheduling over a static
// contiguous partition of it, and the lease plumbing that lets a shard
// export an array replica to a foreign shard's worker over the shared
// fabric (core.Controller.LeaseArray). The gateway (internal/server)
// holds a Plane and routes tenants with Route; everything here is also
// usable directly from tests and benchmarks. The shards share the
// fleet's core.LocalFabric (or its fault-injection wrapper) directly: the
// fabric serialises its own data-path calls, which models one shared
// physical interconnect under a scaled-out control plane.

import (
	"fmt"
	"sort"
	"sync"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/transport"
)

// IDStride separates shard array-ID namespaces: shard s allocates IDs in
// (s·IDStride, (s+1)·IDStride]. 2^40 IDs per shard is unreachable in
// practice and keeps cross-shard lease replicas collision-free on the
// shared worker runtimes (core.Options.ArrayIDBase).
const IDStride dag.ArrayID = 1 << 40

// Options configures a Plane.
type Options struct {
	// Shards is the controller shard count (≥1).
	Shards int
	// Workers is the total fleet size, split contiguously across shards
	// (the first Workers mod Shards partitions get one extra worker).
	// Every shard must own at least one worker.
	Workers int
	// NewPolicy builds shard s's scheduling policy. Policies keep
	// internal state, so each shard needs its own instance. nil defaults
	// to round-robin.
	NewPolicy func(s int) (policy.Policy, error)
	// Core configures every shard controller. Registry defaults to one
	// shared kernels.StdRegistry; ArrayIDBase is overwritten per shard.
	Core core.Options
	// Wrap, when non-nil, wraps the full-fleet fabric before
	// partitioning — fault-injection tests hand in core.NewChaosFabric
	// here so every shard (and the cross-shard lease path) sees the
	// same fault schedule.
	Wrap func(core.Fabric) core.Fabric
	// Seed, VNodes and Epsilon configure the routing ring (zero values
	// take the ring defaults).
	Seed   uint64
	VNodes int
	// Epsilon is the bounded-load slack (DefaultEpsilon when zero).
	Epsilon float64
}

// Plane is a sharded control plane over one worker fleet.
type Plane struct {
	ring *Ring
	// Cluster is the shared simulated fleet.
	Cluster *cluster.Cluster
	// Fabric is the unpartitioned full-fleet fabric (wrapped, when
	// Options.Wrap was set); cross-shard lease bytes move over it.
	Fabric core.Fabric
	// Controllers holds one controller per shard.
	Controllers []*core.Controller
	parts       [][]cluster.NodeID
	// retired is the plane-wide set of drained workers, shared by every
	// shard's PartitionFabric so Healthy answers consistently fleet-wide:
	// after one shard retires a node, no other shard's lease probing or
	// failover may treat it as schedulable (the Healthy/Workers
	// inconsistency regression, TestPartitionFabricHealthyAfterRetire).
	retired *retiredSet
	// pfs keeps each shard's partition fabric for the retire plumbing
	// (and the regression test).
	pfs []*PartitionFabric
}

// retiredSet is a concurrency-safe set of retired workers.
type retiredSet struct {
	mu sync.RWMutex
	m  map[cluster.NodeID]bool
}

func (r *retiredSet) has(w cluster.NodeID) bool {
	if r == nil {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[w]
}

func (r *retiredSet) set(w cluster.NodeID, retired bool) {
	r.mu.Lock()
	if r.m == nil {
		r.m = make(map[cluster.NodeID]bool)
	}
	if retired {
		r.m[w] = true
	} else {
		delete(r.m, w)
	}
	r.mu.Unlock()
}

// New builds a sharded plane: the fleet, the per-shard partition
// fabrics, and one controller per shard with a disjoint array-ID base
// and a placement policy clamped to its partition.
func New(opts Options) (*Plane, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Workers < opts.Shards {
		return nil, fmt.Errorf("shard: %d workers cannot cover %d shards", opts.Workers, opts.Shards)
	}
	ring, err := NewRing(opts.Shards, opts.VNodes, opts.Epsilon, opts.Seed)
	if err != nil {
		return nil, err
	}
	reg := opts.Core.Registry
	if reg == nil {
		reg = kernels.StdRegistry()
	}
	clu := cluster.New(cluster.PaperSpec(opts.Workers))
	var full core.Fabric = core.NewLocalFabric(clu, reg, opts.Core.Numeric)
	if opts.Wrap != nil {
		full = opts.Wrap(full)
	}
	workers := append([]cluster.NodeID(nil), full.Workers()...)
	sort.Slice(workers, func(i, j int) bool { return workers[i] < workers[j] })

	p := &Plane{
		ring:    ring,
		Cluster: clu,
		Fabric:  full,
		parts:   make([][]cluster.NodeID, opts.Shards),
		retired: &retiredSet{},
	}
	per, extra := len(workers)/opts.Shards, len(workers)%opts.Shards
	lo := 0
	for s := 0; s < opts.Shards; s++ {
		hi := lo + per
		if s < extra {
			hi++
		}
		p.parts[s] = workers[lo:hi:hi]
		lo = hi
	}
	for s := 0; s < opts.Shards; s++ {
		var pol policy.Policy
		if opts.NewPolicy != nil {
			pol, err = opts.NewPolicy(s)
			if err != nil {
				return nil, fmt.Errorf("shard %d policy: %w", s, err)
			}
		} else {
			pol = policy.NewRoundRobin()
		}
		co := opts.Core
		co.Registry = reg
		co.ArrayIDBase = dag.ArrayID(s) * IDStride
		pf := NewPartitionFabric(full, p.parts[s])
		pf.retired = p.retired
		p.pfs = append(p.pfs, pf)
		p.Controllers = append(p.Controllers,
			core.NewController(pf, policy.Restrict(pol, p.parts[s]), co))
	}
	return p, nil
}

// shardOf validates s and reports whether w belongs to its partition.
func (p *Plane) shardOf(s int, w cluster.NodeID) error {
	if s < 0 || s >= len(p.Controllers) {
		return fmt.Errorf("shard: shard %d out of range (%d shards)", s, len(p.Controllers))
	}
	for _, n := range p.parts[s] {
		if n == w {
			return nil
		}
	}
	return fmt.Errorf("shard: worker %v is not in shard %d's partition", w, s)
}

// RetireWorker gracefully drains worker w out of shard s
// (core.Controller.RetireWorker: migrate sole-copy arrays, free
// replicas, shrink the roster) and marks it retired plane-wide, so every
// shard's fabric — not just shard s's — reports it unhealthy and no
// other shard schedules lease traffic against the drained node. Lease
// replicas other shards already exported onto w stay resident and remain
// valid lineage roots (replayStep pulls bytes without a health probe).
func (p *Plane) RetireWorker(s int, w cluster.NodeID) error {
	if err := p.shardOf(s, w); err != nil {
		return err
	}
	if err := p.Controllers[s].RetireWorker(w); err != nil {
		return err
	}
	p.retired.set(w, true)
	return nil
}

// AddWorker re-activates a previously retired worker on shard s: the
// plane-wide retired mark is lifted first so the controller's health
// probe sees the node alive again.
func (p *Plane) AddWorker(s int, w cluster.NodeID) error {
	if err := p.shardOf(s, w); err != nil {
		return err
	}
	was := p.retired.has(w)
	p.retired.set(w, false)
	if err := p.Controllers[s].AddWorker(w); err != nil {
		p.retired.set(w, was)
		return err
	}
	return nil
}

// Shards reports the shard count.
func (p *Plane) Shards() int { return len(p.Controllers) }

// Partition reports shard s's worker partition (shared slice; do not
// mutate).
func (p *Plane) Partition(s int) []cluster.NodeID { return p.parts[s] }

// Home reports tenant's natural shard, ignoring load: deterministic for
// a given ring seed, so a restarted gateway routes identically.
func (p *Plane) Home(tenant string) int { return p.ring.Shard(tenant) }

// Route routes tenant with bounded loads (loads[s] = shard s's current
// tenant count). Matches server.RouteFunc.
func (p *Plane) Route(tenant string, loads []int) int { return p.ring.Assign(tenant, loads) }

// Replicate exports array id from shard src to a worker owned by shard
// dst over the full-fleet fabric — the worker P2P path, never a
// controller host — and returns the lease grant. The replica is a valid
// lineage recovery root for shard src (core lease.go).
func (p *Plane) Replicate(src, dst int, id dag.ArrayID) (transport.LeaseGrant, error) {
	if src < 0 || src >= len(p.Controllers) || dst < 0 || dst >= len(p.Controllers) {
		return transport.LeaseGrant{}, fmt.Errorf("shard: replicate %d→%d out of range", src, dst)
	}
	if src == dst {
		return transport.LeaseGrant{}, fmt.Errorf("shard: replicate %d→%d is a no-op", src, dst)
	}
	part := p.parts[dst]
	node := part[int(uint64(id)%uint64(len(part)))]
	ver, err := p.Controllers[src].LeaseArray(p.Fabric, id, node)
	if err != nil {
		return transport.LeaseGrant{}, err
	}
	return transport.LeaseGrant{
		Array:   id,
		Version: ver,
		Node:    node,
		Owner:   int32(src),
		Holder:  int32(dst),
	}, nil
}

// Close drains and stops every shard controller, reporting the first
// error. Idempotent and nil-receiver safe.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	var err error
	for _, c := range p.Controllers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PartitionFabric restricts a full-fleet fabric to one shard's worker
// partition: Workers (the placement universe) reports only the
// partition, while data-path operations go to the embedded fleet fabric —
// a lease replica lives on a foreign worker, and recovery re-ships from
// it over the same wires. It follows core.Fabric's wrapper rule: the three
// fast paths forward through their core helpers, and neither
// core.ConcurrentDispatcher nor core.AsyncLauncher is forwarded.
type PartitionFabric struct {
	core.Fabric
	workers []cluster.NodeID
	// retired, when set (sharded planes), is the plane-wide drained-
	// worker set: Healthy must answer false for a retired node even
	// though the node's runtime still responds, or a shard could
	// schedule lease traffic against a worker another shard drained.
	retired *retiredSet
}

// NewPartitionFabric wraps inner, exposing only workers as the
// placement universe.
func NewPartitionFabric(inner core.Fabric, workers []cluster.NodeID) *PartitionFabric {
	return &PartitionFabric{Fabric: inner, workers: append([]cluster.NodeID(nil), workers...)}
}

// Workers implements core.Fabric: the shard's partition only.
func (f *PartitionFabric) Workers() []cluster.NodeID { return f.workers }

// Healthy implements core.Fabric. It answers for any fleet node, not
// just the partition — lineage recovery probes the lease node's health —
// but a node the plane has retired reads unhealthy everywhere, keeping
// the answer consistent with the partitions' post-retirement view: a
// drained node's runtime still responds, yet no shard may schedule
// against it.
func (f *PartitionFabric) Healthy(w cluster.NodeID) bool {
	return !f.retired.has(w) && f.Fabric.Healthy(w)
}

// EstimateTransferAll implements core.BulkEstimator.
func (f *PartitionFabric) EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes,
	dsts []cluster.NodeID, out []sim.VirtualTime) {
	core.EstimateTransferAll(f.Fabric, src, n, dsts, out)
}

// PredictStall implements core.StallPredictor.
func (f *PartitionFabric) PredictStall(w cluster.NodeID, add, working memmodel.Bytes,
	pattern memmodel.Pattern) sim.VirtualTime {
	return core.PredictStall(f.Fabric, w, add, working, pattern)
}

// BuildKernel implements core.KernelBuilder.
func (f *PartitionFabric) BuildKernel(src, signature string) error {
	return core.BuildKernel(f.Fabric, src, signature)
}
