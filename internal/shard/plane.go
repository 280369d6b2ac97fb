package shard

// plane.go assembles the sharded control plane: one simulated worker
// fleet and N core.Controller shards, each owning a static contiguous
// partition of it outright — its arrays, its retirements and its
// recovery roots. The gateway (internal/server) holds a Plane and routes
// tenants with Route; everything here is also usable directly from
// tests. The shards share the fleet's core.LocalFabric (or its
// fault-injection wrapper) directly: the fabric serialises its own
// data-path calls, which models one shared physical interconnect under a
// scaled-out control plane.

import (
	"fmt"
	"sort"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
)

// Options configures a Plane. Tenants are routed by a ring with the
// default seed, virtual-node count and load slack (ring.go).
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
	// shared kernels.StdRegistry.
	Core core.Options
	// Wrap, when non-nil, wraps the full-fleet fabric before
	// partitioning — fault-injection tests hand in core.NewChaosFabric
	// here so every shard sees the same fault schedule.
	Wrap func(core.Fabric) core.Fabric
}

// Plane is a sharded control plane over one worker fleet.
type Plane struct {
	ring *Ring
	// Cluster is the shared simulated fleet.
	Cluster *cluster.Cluster
	// Controllers holds one controller per shard. A worker is retired
	// or re-added through its own shard's controller
	// (core.Controller.RetireWorker/AddWorker), which refuses a worker
	// outside the partition.
	Controllers []*core.Controller
	parts       [][]cluster.NodeID
}

// New builds a sharded plane: the fleet, the per-shard partition
// fabrics, and one controller per shard with a placement policy clamped
// to its partition.
func New(opts Options) (*Plane, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Workers < opts.Shards {
		return nil, fmt.Errorf("shard: %d workers cannot cover %d shards", opts.Workers, opts.Shards)
	}
	ring, err := NewRing(opts.Shards, DefaultVNodes, DefaultEpsilon, DefaultSeed)
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
		parts:   make([][]cluster.NodeID, opts.Shards),
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
		p.Controllers = append(p.Controllers, core.NewController(
			NewPartitionFabric(full, p.parts[s]), policy.Restrict(pol, p.parts[s]), co))
	}
	return p, nil
}

// Shards reports the shard count.
func (p *Plane) Shards() int { return len(p.Controllers) }

// Partition reports shard s's worker partition (shared slice; do not
// mutate).
func (p *Plane) Partition(s int) []cluster.NodeID { return p.parts[s] }

// Route routes tenant with bounded loads (loads[s] = shard s's current
// tenant count). Matches server.RouteFunc.
func (p *Plane) Route(tenant string, loads []int) int { return p.ring.Assign(tenant, loads) }

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
// partition, while data-path operations (Healthy included) go to the
// embedded fleet fabric. It follows core.Fabric's wrapper rule: the three
// fast paths forward through their core helpers, and core.AsyncLauncher
// is not forwarded.
type PartitionFabric struct {
	core.Fabric
	workers []cluster.NodeID
}

// NewPartitionFabric wraps inner, exposing only workers as the
// placement universe.
func NewPartitionFabric(inner core.Fabric, workers []cluster.NodeID) *PartitionFabric {
	return &PartitionFabric{Fabric: inner, workers: append([]cluster.NodeID(nil), workers...)}
}

// Workers implements core.Fabric: the shard's partition only.
func (f *PartitionFabric) Workers() []cluster.NodeID { return f.workers }

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
