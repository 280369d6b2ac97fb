package grout

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/server"
	"grout/internal/transport"
)

// BenchmarkSoakBoundedState is ROADMAP 4c's gate (minus the lineage
// index): a million CEs from two Dial tenants through the gateway to two
// TCP workers, and the process must be no bigger at the end than after the
// first quarter. It is a benchmark only so that plain `go test ./...` does
// not spend twenty seconds on it; scripts/ci.sh runs it with -benchtime=1x
// and it fails like a test.
//
// After a forced GC at 25, 50, 75 and 100 % of the stream, HeapInuse and
// the goroutine count must be within 20 % of their 25 % reading, and the
// controller's and both workers' graphs must hold at most the retirement
// horizon plus what sixteen ever-rewritten arrays keep on the frontier.
func BenchmarkSoakBoundedState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		soak(b)
	}
}

func soak(b *testing.B) {
	const (
		tenants     = 2
		arrays      = 8
		elems       = 1024
		burst       = 64 // launches between Syncs: the gateway's default queue depth
		totalCEs    = 1 << 20
		perQuarter  = totalCEs / 4 / tenants / burst // bursts per tenant per quarter
		liveBound   = dag.RetireHorizon + 16*tenants*arrays
		growthBound = 1.20
	)
	var workers []*transport.WorkerServer
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec(fmt.Sprintf("w%d", i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	remote, err := Connect(addrs, Config{Policy: "min-transfer-time", Pipeline: true})
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	gw, err := server.New(remote.Controller, "127.0.0.1:0", server.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()

	type tenant struct {
		c   *GatewayClient
		ids []dag.ArrayID
	}
	ts := make([]tenant, tenants)
	for i := range ts {
		c, err := Dial(gw.Addr(), fmt.Sprintf("soak-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ts[i].c = c
		for a := 0; a < arrays; a++ {
			id, err := c.NewArray(memmodel.Float32, elems)
			if err != nil {
				b.Fatal(err)
			}
			buf := c.Buffer(id)
			for j := 0; j < elems; j++ {
				buf.Set(j, float64(j%13)-6)
			}
			if err := c.HostWrite(id); err != nil {
				b.Fatal(err)
			}
			ts[i].ids = append(ts[i].ids, id)
		}
	}

	// quarter runs every tenant's next quarter of the stream: in-place
	// and two-array kernels whose values stay bounded (relu, copy,
	// sign-flipping scale), so kernel time does not drift.
	n := core.ScalarRef(elems)
	quarter := func(q int) {
		var wg sync.WaitGroup
		errs := make([]error, tenants)
		for ti := range ts {
			wg.Add(1)
			go func(ti int) {
				defer wg.Done()
				t := ts[ti]
				for k := 0; k < perQuarter*burst; k++ {
					step := q*perQuarter*burst + k
					x := core.ArrRef(t.ids[step%arrays])
					y := core.ArrRef(t.ids[(step*5+3)%arrays])
					var err error
					switch step % 3 {
					case 0:
						err = t.c.Launch("relu", 1, 1, x, n)
					case 1:
						err = t.c.Launch("copy", 1, 1, y, x, n)
					default:
						err = t.c.Launch("scale", 1, 1, y, x, core.ScalarRef(-1), n)
					}
					if err == nil && k%burst == burst-1 {
						err = t.c.Sync()
					}
					if err != nil {
						errs[ti] = err
						return
					}
				}
			}(ti)
		}
		wg.Wait()
		for ti, err := range errs {
			if err != nil {
				b.Fatalf("tenant %d, quarter %d: %v", ti, q+1, err)
			}
		}
	}

	var heap0 uint64
	var gor0 int
	for q := 0; q < 4; q++ {
		quarter(q)
		// Every tenant has synced: the fleet is idle. Two collections,
		// so memory freed by finalizers and pools is gone too.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap, gor := ms.HeapInuse, runtime.NumGoroutine()
		live := []int{remote.Controller.LiveCEs()}
		for _, w := range workers {
			live = append(live, w.LiveCEs())
		}
		b.Logf("%3d%% (%7d CEs): HeapInuse %.1f MB, %d goroutines, live CEs controller/workers %v",
			25*(q+1), (q+1)*perQuarter*burst*tenants, float64(heap)/1e6, gor, live)
		if q == 0 {
			heap0, gor0 = heap, gor
			continue
		}
		if float64(heap) > growthBound*float64(heap0) {
			b.Fatalf("HeapInuse %.1f MB at %d%% of the stream, %.1f MB at 25%%: grew more than 20%%",
				float64(heap)/1e6, 25*(q+1), float64(heap0)/1e6)
		}
		if float64(gor) > growthBound*float64(gor0) {
			b.Fatalf("%d goroutines at %d%% of the stream, %d at 25%%: grew more than 20%%", gor, 25*(q+1), gor0)
		}
		for i, held := range live {
			if held > liveBound {
				b.Fatalf("graph %d (0 = controller) holds %d CEs at %d%% of the stream, bound %d", i, held, 25*(q+1), liveBound)
			}
		}
	}
}
