package bench

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// throughputCase is one controller-throughput configuration: a policy
// constructor and a cluster size.
type throughputCase struct {
	name  string
	nodes int
	pol   func() policy.Policy
}

func throughputCases() []throughputCase {
	mtt := func() policy.Policy { return policy.NewMinTransferTime(policy.Medium) }
	return []throughputCase{
		{name: "rr-256w", nodes: 256, pol: func() policy.Policy { return policy.NewRoundRobin() }},
		{name: "mtt-16w", nodes: 16, pol: mtt},
		{name: "mtt-256w", nodes: 256, pol: mtt},
	}
}

// streamController builds the Fig. 9 probe system: a paper-spec cluster of
// the given size and 16 × 16 MiB framework arrays.
func streamController(nodes int, pol policy.Policy) (*core.Controller, []core.ArgRef) {
	clu := cluster.New(cluster.PaperSpec(nodes))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := core.NewController(fab, pol, core.Options{})
	const arrays = 16
	const elems = int64(16 * memmodel.MiB / 4)
	ids := make([]core.ArgRef, arrays)
	for i := range ids {
		arr, err := ctl.NewArray(memmodel.Float32, elems)
		if err != nil {
			panic(err)
		}
		ids[i] = core.ArrRef(arr.ID)
	}
	return ctl, ids
}

// fig9Invocation is the i-th CE of the Fig. 9 synthetic stream: relu
// (read-write) over the arrays round-robin.
func fig9Invocation(ids []core.ArgRef, i int) core.Invocation {
	const elems = int64(16 * memmodel.MiB / 4)
	return core.Invocation{
		Kernel: "relu",
		Args:   []core.ArgRef{ids[i%len(ids)], core.ScalarRef(float64(elems))},
	}
}

// BenchmarkControllerSubmitThroughput measures the controller's end-to-end
// per-CE submission cost (scheduling + dispatch) on the Fig. 9 synthetic
// stream. ns/op is ns per CE.
func BenchmarkControllerSubmitThroughput(b *testing.B) {
	const resetEvery = 8192 // bound graph/trace growth: steady-state cost
	for _, tc := range throughputCases() {
		b.Run(tc.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			ctl, ids := streamController(tc.nodes, tc.pol())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%resetEvery == 0 {
					b.StopTimer()
					if err := ctl.Close(); err != nil {
						b.Fatal(err)
					}
					ctl, ids = streamController(tc.nodes, tc.pol())
					b.StartTimer()
				}
				if _, err := ctl.Launch(fig9Invocation(ids, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := ctl.Close(); err != nil {
				b.Fatal(err)
			}
		})
		b.Run(tc.name+"/pipelined", func(b *testing.B) {
			b.ReportAllocs()
			ctl, ids := streamController(tc.nodes, tc.pol())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%resetEvery == 0 {
					b.StopTimer()
					if err := ctl.Close(); err != nil {
						b.Fatal(err)
					}
					ctl, ids = streamController(tc.nodes, tc.pol())
					b.StartTimer()
				}
				if _, err := ctl.Submit(fig9Invocation(ids, i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := ctl.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := ctl.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkSchedulingOnly isolates the timed scheduling section (the
// paper's Figure 9 quantity) by reading the controller's own overhead
// meter after a fixed stream.
func BenchmarkSchedulingOnly(b *testing.B) {
	for _, tc := range throughputCases() {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			ctl, ids := streamController(tc.nodes, tc.pol())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%8192 == 0 {
					b.StopTimer()
					ctl, ids = streamController(tc.nodes, tc.pol())
					b.StartTimer()
				}
				if _, err := ctl.Launch(fig9Invocation(ids, i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ctl.MeanSchedulingOverhead().Nanoseconds()), "sched-ns/CE")
		})
	}
}
