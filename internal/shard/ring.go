// Package shard implements the sharded control plane (DESIGN.md §5.8):
// N core.Controller shards, each owning a static partition of one worker
// fleet, fronted by a gateway that routes every tenant to exactly one
// shard. Routing uses a seeded consistent-hash ring with virtual nodes
// and bounded loads, so adding a shard remaps only ~1/N of the tenants
// and a restarted gateway reproduces the same assignment. A tenant's
// arrays live only on its shard's partition, so no array crosses shards.
package shard

import (
	"fmt"
	"sort"
)

const (
	// DefaultVNodes is the virtual-node count per shard: enough that the
	// ring's load spread stays within a few percent at tens of shards.
	DefaultVNodes = 160
	// DefaultEpsilon is the bounded-load slack: no shard carries more
	// than ceil((tenants+1)/shards)·(1+ε) tenants.
	DefaultEpsilon = 0.25
	// DefaultSeed keys the ring hash. Any two gateways built with the
	// same seed, shard count and vnode count route identically — that is
	// what makes routing survive a gateway restart.
	DefaultSeed = 0x6772_6f75_7421 // "grout!"
)

// Ring is a seeded consistent-hash ring over shard indices. It is
// immutable after construction and safe for concurrent readers.
type Ring struct {
	shards int
	eps    float64
	seed   uint64
	hashes []uint64 // sorted vnode positions
	owners []int    // owners[i] = shard owning hashes[i]
}

// NewRing builds a ring of n shards with vnodes virtual nodes per shard
// (0 = DefaultVNodes), slack eps (0 = DefaultEpsilon) and the given hash
// seed (0 = DefaultSeed).
func NewRing(n, vnodes int, eps float64, seed uint64) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", n)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	r := &Ring{
		shards: n,
		eps:    eps,
		seed:   seed,
		hashes: make([]uint64, 0, n*vnodes),
		owners: make([]int, 0, n*vnodes),
	}
	type vn struct {
		h     uint64
		owner int
	}
	vns := make([]vn, 0, n*vnodes)
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			vns = append(vns, vn{r.hash(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].h != vns[j].h {
			return vns[i].h < vns[j].h
		}
		return vns[i].owner < vns[j].owner // deterministic on (vanishingly rare) collisions
	})
	for _, x := range vns {
		r.hashes = append(r.hashes, x.h)
		r.owners = append(r.owners, x.owner)
	}
	return r, nil
}

// Shards reports the ring's shard count.
func (r *Ring) Shards() int { return r.shards }

// hash is seeded FNV-1a: cheap, dependency-free, and stable across
// builds (unlike maphash, whose seed cannot be pinned).
func (r *Ring) hash(key string) uint64 {
	const prime = 1099511628211
	h := 14695981039346656037 ^ r.seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	// One final mix so seeds differing in high bits still scatter.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Shard routes key to its owning shard, ignoring load (pure consistent
// hashing). Deterministic for a given (seed, shards, vnodes).
func (r *Ring) Shard(key string) int {
	return r.owners[r.slot(key)]
}

func (r *Ring) slot(key string) int {
	h := r.hash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return i
}

// Assign routes key with bounded loads: loads[s] is shard s's current
// tenant count, and a shard already at the cap ceil((total+1)/N)·(1+ε)
// is skipped by walking the ring clockwise to the next distinct shard.
// With well-spread keys the walk almost never fires; it exists so one
// hot prefix cannot pile every tenant onto one controller.
func (r *Ring) Assign(key string, loads []int) int {
	if len(loads) != r.shards {
		return r.Shard(key)
	}
	total := 0
	for _, l := range loads {
		total += l
	}
	cap := int(float64((total+r.shards)/r.shards) * (1 + r.eps))
	if cap < 1 {
		cap = 1
	}
	start := r.slot(key)
	for off := 0; off < len(r.hashes); off++ {
		s := r.owners[(start+off)%len(r.hashes)]
		if loads[s] < cap {
			return s
		}
	}
	return r.owners[start] // all at cap: fall back to the natural owner
}
