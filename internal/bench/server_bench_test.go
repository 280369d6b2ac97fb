package bench

// Gateway tenant-scaling benchmark: N concurrent client sessions over
// real loopback TCP against one shared 4-worker controller. ns/op is
// the per-tenant per-launch cost (round trip + weighted admission);
// the reported metrics add aggregate throughput (ce_per_s across all
// tenants) and the worst per-tenant p99 admission wait (p99adm_us),
// scraped from the gateway's session counters — the same numbers
// /metrics exports. Cost-only controller: the point is the admission
// path, not kernel arithmetic.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/server"
	"grout/internal/shard"
)

const gwBenchElems = int64(memmodel.MiB / 4)

func gatewayBenchSystem(b *testing.B, opt server.Options) (*server.Gateway, func()) {
	b.Helper()
	clu := cluster.New(cluster.PaperSpec(4))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), false)
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Pipeline: true})
	g, err := server.New(ctl, "127.0.0.1:0", opt)
	if err != nil {
		b.Fatal(err)
	}
	return g, func() { g.Close(); ctl.Close() }
}

// runGatewayTenants drives `tenants` concurrent sessions for b.N
// launches each and reports aggregate throughput plus the worst
// well-behaved tenant's p99 admission wait. With hostile true, tenant 0
// ignores the gateway's backpressure advisories (the over-limit
// neighbor of the acceptance gate) and is excluded from the p99 — the
// point is what its presence does to everyone else.
func runGatewayTenants(b *testing.B, g *server.Gateway, tenants int, elems int64, hostile bool) {
	b.Helper()
	clients := make([]*server.Client, tenants)
	arrays := make([][]dag.ArrayID, tenants)
	for k := range clients {
		c, err := server.Dial(g.Addr(), fmt.Sprintf("t%03d", k), 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[k] = c
		if hostile && k == 0 {
			c.SetHonorBackpressure(false)
		}
		for a := 0; a < 4; a++ {
			id, err := c.NewArray(memmodel.Float32, elems)
			if err != nil {
				b.Fatal(err)
			}
			arrays[k] = append(arrays[k], id)
		}
	}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for k, c := range clients {
		wg.Add(1)
		go func(k int, c *server.Client) {
			defer wg.Done()
			nArg := core.ScalarRef(float64(elems))
			for i := 0; i < b.N; i++ {
				id := arrays[k][i%len(arrays[k])]
				if err := c.Launch("relu", 1024, 256,
					core.ArrRef(id), nArg); err != nil {
					errs <- err
					return
				}
			}
			errs <- c.Sync()
		}(k, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	totalCEs := float64(tenants) * float64(b.N)
	b.ReportMetric(totalCEs/elapsed.Seconds(), "ce_per_s")
	var p99 time.Duration
	for _, t := range g.Snapshot().Tenants {
		if hostile && t.Name == "t000" {
			continue // the hostile tenant's own wait is not the story
		}
		if t.AdmissionWaitP99 > p99 {
			p99 = t.AdmissionWaitP99
		}
	}
	b.ReportMetric(float64(p99.Microseconds()), "p99adm_us")
}

// gwRateLimits is the production-traffic shape for the 64-tenant rows:
// every tenant token-bucketed, so a hostile over-limit tenant is
// contained by its own bucket and queue bound instead of starving
// neighbors.
var gwRateLimits = core.SessionLimits{MaxInflightCEs: 32, RatePerSec: 400, Burst: 16}

func BenchmarkGatewayTenants(b *testing.B) {
	for _, tenants := range []int{1, 4, 16, 64, 256} {
		// At 256 tenants the per-tenant mirrors dominate memory; shrink
		// the arrays so the row measures admission, not allocation.
		elems := gwBenchElems
		if tenants >= 256 {
			elems = gwBenchElems / 16
		}
		b.Run(fmt.Sprintf("%dx", tenants), func(b *testing.B) {
			opt := server.Options{Limits: core.SessionLimits{MaxInflightCEs: 32}}
			if tenants >= 64 {
				opt.Limits = gwRateLimits
			}
			g, stop := gatewayBenchSystem(b, opt)
			defer stop()
			runGatewayTenants(b, g, tenants, elems, false)
		})
	}
	// The acceptance row: 64 rate-limited tenants, one of them hostile
	// (ignores backpressure, hammers its queue). Neighbor p99 must stay
	// within 2x of the plain 64x row — scripts/bench.sh records the
	// ratio in BENCH_server.json.
	b.Run("64x-hostile", func(b *testing.B) {
		g, stop := gatewayBenchSystem(b, server.Options{Limits: gwRateLimits})
		defer stop()
		runGatewayTenants(b, g, 64, gwBenchElems, true)
	})
}

// BenchmarkGatewayShards is the control-plane scale-out sweep: 16
// concurrent tenants over a 16-worker fleet, with the controller fleet
// sharded 1/4/8/16 ways behind one gateway (consistent-hash routing,
// per-shard drain goroutines). ce_per_s is aggregate admission
// throughput across all tenants; p99adm_us is the worst tenant's p99
// admission wait. The simulated fleet's data path is one shared lock (a
// virtual-time constraint), so on a single-core box the sweep measures
// contention relief in the admission/scheduling sections, not CPU
// parallelism — scripts/bench.sh records gomaxprocs alongside the
// numbers.
func BenchmarkGatewayShards(b *testing.B) {
	const tenants = 16
	for _, shards := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			p, err := shard.New(shard.Options{
				Shards:  shards,
				Workers: 16,
				Core:    core.Options{Pipeline: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			g, err := server.NewSharded(p.Controllers, p.Route, "127.0.0.1:0", server.Options{
				Limits: core.SessionLimits{MaxInflightCEs: 32},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()

			clients := make([]*server.Client, tenants)
			arrays := make([][]dag.ArrayID, tenants)
			for k := range clients {
				c, err := server.Dial(g.Addr(), fmt.Sprintf("t%02d", k), 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[k] = c
				for a := 0; a < 4; a++ {
					id, err := c.NewArray(memmodel.Float32, gwBenchElems)
					if err != nil {
						b.Fatal(err)
					}
					arrays[k] = append(arrays[k], id)
				}
			}
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			errs := make(chan error, tenants)
			for k, c := range clients {
				wg.Add(1)
				go func(k int, c *server.Client) {
					defer wg.Done()
					nArg := core.ScalarRef(float64(gwBenchElems))
					for i := 0; i < b.N; i++ {
						id := arrays[k][i%len(arrays[k])]
						if err := c.Launch("relu", 1024, 256,
							core.ArrRef(id), nArg); err != nil {
							errs <- err
							return
						}
					}
					errs <- c.Sync()
				}(k, c)
			}
			wg.Wait()
			elapsed := time.Since(start)
			close(errs)
			for err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			totalCEs := float64(tenants) * float64(b.N)
			b.ReportMetric(totalCEs/elapsed.Seconds(), "ce_per_s")
			var p99 time.Duration
			for _, t := range g.Snapshot().Tenants {
				if t.AdmissionWaitP99 > p99 {
					p99 = t.AdmissionWaitP99
				}
			}
			b.ReportMetric(float64(p99.Microseconds()), "p99adm_us")
		})
	}
}

// BenchmarkGatewayDialChurn measures session open latency under dial
// churn: each iteration fires a 32-way concurrent burst of
// dial+ping+close against the gateway (the fleet-reconnect shape).
// dial_p99_us is the burst's worst observed dial+handshake latency;
// scripts/bench.sh records it into BENCH_server.json as the dial-churn
// row.
func BenchmarkGatewayDialChurn(b *testing.B) {
	const burst = 32
	g, stop := gatewayBenchSystem(b, server.Options{})
	defer stop()
	var worst time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lats := make([]time.Duration, burst)
		var wg sync.WaitGroup
		errs := make(chan error, burst)
		for k := 0; k < burst; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				t0 := time.Now()
				c, err := server.Dial(g.Addr(), fmt.Sprintf("churn-%02d", k), 0, 0)
				if err != nil {
					errs <- err
					return
				}
				err = c.Ping()
				lats[k] = time.Since(t0)
				_ = c.Close()
				errs <- err
			}(k)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, l := range lats {
			if l > worst {
				worst = l
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(worst.Microseconds()), "dial_p99_us")
}
