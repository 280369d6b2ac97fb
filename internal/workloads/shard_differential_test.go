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
	"fmt"
	"sort"
	"sync"
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/policy"
	"grout/internal/shard"
	"grout/internal/transport"
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
	forEachSuiteWorkload(t, func(t *testing.T, w *Workload) {
		var baseChaos, shardChaos *core.ChaosOptions
		if chaos != nil {
			baseChaos, shardChaos = chaos(), chaos()
		}
		diffShards(t, w, newDiffPlane(t, 1, baseChaos).Controllers[0], newDiffPlane(t, 4, shardChaos).Controllers)
	})
}

// forEachSuiteWorkload runs f as one subtest per suite workload, in name
// order.
func forEachSuiteWorkload(t *testing.T, f func(t *testing.T, w *Workload)) {
	t.Helper()
	suite := FullSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { f(t, suite[name]) })
	}
}

// diffShards runs w on base, then on every shard of a plane at once, and
// demands each shard's arrays and error text equal base's.
func diffShards(t *testing.T, w *Workload, base *core.Controller, shards []*core.Controller) {
	t.Helper()
	want, wantErr := runOnShard(base, w)
	type result struct {
		out     [][]byte
		errText string
	}
	results := make([]result, len(shards))
	var wg sync.WaitGroup
	for s, ctl := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			out, errText := runOnShard(ctl, w)
			results[s] = result{out, errText}
		}(s)
	}
	wg.Wait()

	for s, r := range results {
		if r.errText != wantErr {
			t.Fatalf("shard %d error text diverged:\n  1-shard: %q\n  %d-shard: %q",
				s, wantErr, len(shards), r.errText)
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
}

// tcpShard is one shard of a plane over in-process TCP workers: a
// controller over a TCP fabric of its own, as grout.Connect builds it.
type tcpShard struct {
	ctl *core.Controller
	fab *transport.TCPFabric
}

func (s tcpShard) Close() error {
	err := s.ctl.Close()
	if ferr := s.fab.Close(); err == nil {
		err = ferr
	}
	return err
}

// newTCPPlane starts four in-process TCP workers and builds a plane of
// shards over them through shard.Build, as grout-gateway and
// grout-controller build theirs, with runDifferential's controller
// configuration.
func newTCPPlane(t *testing.T, shards int) []*core.Controller {
	t.Helper()
	addrs := make([]string, 4)
	for i := range addrs {
		w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec(fmt.Sprintf("w%d", i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		addrs[i] = w.Addr()
	}
	plane, _, err := shard.Build(addrs, shards, func(_ int, part []string) (tcpShard, error) {
		fab, err := transport.Dial(part)
		if err != nil {
			return tcpShard{}, err
		}
		ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{Numeric: true})
		return tcpShard{ctl, fab}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctls := make([]*core.Controller, len(plane))
	for s, sh := range plane {
		t.Cleanup(func() { _ = sh.Close() })
		ctls[s] = sh.ctl
	}
	return ctls
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

// The same identity over real sockets: 2 shards over 4 in-process TCP
// workers, each shard streaming over a TCP fabric of its own, against 1
// shard over 4 workers of the same shape (a fresh fleet per plane: both
// planes number their arrays from the same first ID).
func TestShardDifferentialSuiteTCP(t *testing.T) {
	forEachSuiteWorkload(t, func(t *testing.T, w *Workload) {
		diffShards(t, w, newTCPPlane(t, 1)[0], newTCPPlane(t, 2))
	})
}
