package core

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// TestFreeArrayReleasesGraphState: freeing an array takes its accessors
// off the frontier of the Global DAG and of every worker's Local DAG, so a
// tenant that allocates, computes and frees in a loop holds no more graph
// after 10 000 rounds than after the first few thousand — on the serial
// path (Launch), and through Submit behind the dispatcher goroutine, where
// commits reach the graph through the finished queue.
func TestFreeArrayReleasesGraphState(t *testing.T) {
	for name, launch := range map[string]bool{"serial": true, "pipelined": false} {
		t.Run(name, func(t *testing.T) {
			fab := NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), false)
			ctl := NewController(fab, policy.NewRoundRobin(), Options{})
			defer ctl.Close()
			rounds := func(n int) {
				t.Helper()
				for i := 0; i < n; i++ {
					a, err := ctl.NewArray(memmodel.Float32, 1024)
					if err != nil {
						t.Fatal(err)
					}
					for _, inv := range []Invocation{
						{Kernel: "fill", Args: []ArgRef{ArrRef(a.ID), ScalarRef(1), ScalarRef(1024)}},
						{Kernel: "relu", Args: []ArgRef{ArrRef(a.ID), ScalarRef(1024)}},
					} {
						var err error
						if launch {
							_, err = ctl.Launch(inv)
						} else {
							_, err = ctl.Submit(inv)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if _, err := ctl.HostRead(a.ID); err != nil {
						t.Fatal(err)
					}
					if err := ctl.FreeArray(a.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			type held struct{ live, frontier int }
			snapshot := func() (out []held) {
				graphs := []*dag.Graph{ctl.Graph()}
				for _, w := range fab.Workers() {
					graphs = append(graphs, fab.Runtime(w).Graph())
				}
				for _, g := range graphs {
					out = append(out, held{g.Live(), len(g.Frontier())})
				}
				return out
			}
			rounds(5000) // past the retirement horizon: Live has reached its plateau
			before := snapshot()
			rounds(10000)
			for i, after := range snapshot() {
				if after != before[i] {
					t.Errorf("graph %d (0 = controller): %+v after 10 000 more alloc/launch/free rounds, was %+v",
						i, after, before[i])
				}
				if after.frontier != 0 || after.live > dag.RetireHorizon {
					t.Errorf("graph %d: holds %+v with every array freed, want an empty frontier and at most the horizon (%d)",
						i, after, dag.RetireHorizon)
				}
			}
			if got, want := ctl.LiveCEs(), ctl.Graph().Live(); got != want {
				t.Errorf("LiveCEs = %d, Graph().Live() = %d after a synchronising call", got, want)
			}
		})
	}
}
