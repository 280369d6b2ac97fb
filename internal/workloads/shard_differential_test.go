package workloads

// The sharded-control-plane differential gate (DESIGN.md §5.8): every
// suite workload must produce bit-identical array contents (and
// identical error text) on a 4-shard plane — where each shard
// controller schedules over a 2-worker partition — as on a 1-shard
// plane owning the whole 8-worker fleet. The shards run the workloads
// concurrently, so this is also the -race companion for the plane. A
// chaos variant kills a worker mid-run on both sides and demands the
// same identity through lineage recovery.

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/policy"
	"grout/internal/shard"
)

// newDiffPlane builds a plane matching runDifferential's controller
// configuration: numeric, pipelined, min-transfer-time policy.
func newDiffPlane(t *testing.T, shards int, chaos *core.ChaosOptions) *shard.Plane {
	t.Helper()
	opts := shard.Options{
		Shards:  shards,
		Workers: 8,
		NewPolicy: func(int) (policy.Policy, error) {
			return policy.NewMinTransferTime(policy.Medium), nil
		},
		Core: core.Options{Numeric: true},
	}
	if chaos != nil {
		opts.Core.Failover = true
		opts.Wrap = func(inner core.Fabric) core.Fabric {
			return core.NewChaosFabric(inner, *chaos)
		}
	}
	p, err := shard.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// runOnShard builds one workload against a single shard controller and
// returns every live array's final bytes plus the run's error text.
func runOnShard(ctl *core.Controller, w *Workload) ([][]byte, string) {
	s := &AsyncGrout{Ctl: ctl}
	rec := &recorder{Session: s, live: make(map[dag.ArrayID]bool)}
	errText := ""
	if err := w.Build(rec, gateParams(w.Name)); err != nil {
		errText = err.Error()
	}
	if err := s.Wait(); err != nil && errText == "" {
		errText = err.Error()
	}
	var out [][]byte
	for _, id := range rec.order {
		if !rec.live[id] {
			continue
		}
		if _, err := ctl.HostRead(id); err != nil {
			if errText == "" {
				errText = err.Error()
			}
			out = append(out, nil)
			continue
		}
		arr := ctl.Array(id)
		out = append(out, append([]byte(nil), arr.Buf.RawBytes()...))
	}
	return out, errText
}

func shardDifferential(t *testing.T, chaos func() *core.ChaosOptions) {
	t.Helper()
	suite := FullSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var baseChaos, shardChaos *core.ChaosOptions
			if chaos != nil {
				baseChaos, shardChaos = chaos(), chaos()
			}
			base := newDiffPlane(t, 1, baseChaos)
			want, wantErr := runOnShard(base.Controllers[0], suite[name])

			p := newDiffPlane(t, 4, shardChaos)
			type result struct {
				out     [][]byte
				errText string
			}
			results := make([]result, p.Shards())
			var wg sync.WaitGroup
			for s := 0; s < p.Shards(); s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					out, errText := runOnShard(p.Controllers[s], suite[name])
					results[s] = result{out, errText}
				}(s)
			}
			wg.Wait()

			for s, r := range results {
				if r.errText != wantErr {
					t.Fatalf("shard %d error text diverged:\n  1-shard: %q\n  4-shard: %q",
						s, wantErr, r.errText)
				}
				if len(r.out) != len(want) {
					t.Fatalf("shard %d live array count diverged: %d vs %d", s, len(r.out), len(want))
				}
				for i := range want {
					if !bytes.Equal(want[i], r.out[i]) {
						t.Fatalf("shard %d: array %d of %d diverged from the 1-shard run",
							s, i, len(want))
					}
				}
			}
		})
	}
}

// Every suite workload, run on all four shards at once, is bit-identical
// to the 1-shard plane.
func TestShardDifferentialSuite(t *testing.T) {
	shardDifferential(t, nil)
}

// The same identity must survive a chaos worker kill: worker 1 (shard
// 0's partition on the 4-shard plane; just another worker on the
// 1-shard plane) dies at its second launch on both sides, and lineage
// recovery keeps every shard's results bit-identical.
func TestShardDifferentialSuiteUnderChaos(t *testing.T) {
	shardDifferential(t, func() *core.ChaosOptions {
		return &core.ChaosOptions{KillAtLaunch: map[cluster.NodeID]int{1: 2}, Seed: 42}
	})
}
