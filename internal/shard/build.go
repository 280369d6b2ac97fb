package shard

import (
	"fmt"
	"io"
)

// Build is the one way a sharded plane is made, over simulated or
// remote workers: workers split into shards contiguous partitions (the
// first len(workers) mod shards one worker longer than the rest), shard s
// built over partition s by build. It refuses a shard count outside
// [1, len(workers)] before building anything, and closes the shards it
// built if a later one fails. Tenants are routed over the shards by the
// returned ring's Assign, keyed by the plane's constants. New builds
// controllers over PartitionFabrics with it; grout-gateway and
// grout-controller build one grout.Connect per partition of -workers.
func Build[W any, S io.Closer](workers []W, shards int, build func(s int, part []W) (S, error)) ([]S, *Ring, error) {
	if shards < 1 || shards > len(workers) {
		return nil, nil, fmt.Errorf("shard: cannot split %d workers into %d shards (need 1 ≤ shards ≤ workers)",
			len(workers), shards)
	}
	out := make([]S, 0, shards)
	per, extra := len(workers)/shards, len(workers)%shards
	lo := 0
	for s := 0; s < shards; s++ {
		hi := lo + per
		if s < extra {
			hi++
		}
		sh, err := build(s, workers[lo:hi:hi])
		if err != nil {
			for _, c := range out {
				_ = c.Close()
			}
			return nil, nil, err
		}
		out = append(out, sh)
		lo = hi
	}
	ring, _ := NewRing(shards, DefaultVNodes, DefaultEpsilon, DefaultSeed) // shards ≥ 1: cannot fail
	return out, ring, nil
}
