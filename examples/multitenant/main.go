// Multi-tenant gateway demo: one simulated controller fleet shared by
// two concurrent client programs over real TCP. Each tenant runs a
// workload from the paper suite through the same Session interface the
// in-process runs use, and the example verifies both results are
// bit-identical to solo runs on a private fleet — tenancy changes
// scheduling, never results. The CLI equivalent of the server half is
// `grout-gateway -listen :7080 -http :7081 -sim-workers 4`.
package main

import (
	"fmt"
	"log"
	"sync"

	"grout"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/server"
	"grout/internal/workloads"
)

// run builds one suite workload through any Session and returns the
// contents of every array the program host-read or host-wrote last
// (locally mirrored data), keyed by session-local array ID.
func run(s workloads.Session, name string) (map[int64][]float64, error) {
	w := workloads.Suite()[name]
	if err := w.Build(s, workloads.Params{Footprint: 4 * memmodel.MiB, Blocks: 2}); err != nil {
		return nil, err
	}
	out := make(map[int64][]float64)
	for id := int64(1); id < 64; id++ {
		buf := s.Buffer(dag.ArrayID(id))
		if buf == nil {
			continue
		}
		vals := make([]float64, buf.Len())
		for i := range vals {
			vals[i] = buf.At(i)
		}
		out[id] = vals
	}
	return out, nil
}

// soloRun executes the workload on a private in-process fleet.
func soloRun(name string) (map[int64][]float64, error) {
	clu, err := grout.NewSimulatedCluster(grout.Config{
		Workers: 4, Policy: "round-robin", Numeric: true})
	if err != nil {
		return nil, err
	}
	defer clu.Close()
	g, err := server.New(clu.Controller, "127.0.0.1:0", server.Options{})
	if err != nil {
		return nil, err
	}
	defer g.Close()
	sess, err := grout.Dial(g.Addr(), "solo-"+name)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return run(sess, name)
}

func main() {
	tenants := []string{"bs", "mv"}

	// Solo baselines: each workload alone on its own fleet.
	solo := make(map[string]map[int64][]float64)
	for _, name := range tenants {
		res, err := soloRun(name)
		if err != nil {
			log.Fatal(err)
		}
		solo[name] = res
		fmt.Printf("solo %-3s done: %d mirrored arrays\n", name, len(res))
	}

	// One shared fleet behind a gateway; both tenants at once over TCP.
	clu, err := grout.NewSimulatedCluster(grout.Config{
		Workers: 4, Policy: "round-robin", Numeric: true})
	if err != nil {
		log.Fatal(err)
	}
	defer clu.Close()
	g, err := server.New(clu.Controller, "127.0.0.1:0", server.Options{
		Limits: core.SessionLimits{MaxInflightCEs: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer g.Close()
	fmt.Printf("gateway on %s, %d tenants connecting\n", g.Addr(), len(tenants))

	shared := make(map[string]map[int64][]float64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range tenants {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sess, err := grout.Dial(g.Addr(), name)
			if err != nil {
				log.Fatal(err)
			}
			defer sess.Close()
			res, err := run(sess, name)
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			mu.Lock()
			shared[name] = res
			mu.Unlock()
		}(name)
	}
	wg.Wait()

	// Bit-identical or bust.
	for _, name := range tenants {
		a, b := solo[name], shared[name]
		if len(a) != len(b) {
			log.Fatalf("%s: %d arrays solo vs %d shared", name, len(a), len(b))
		}
		for id, av := range a {
			bv := b[id]
			if len(av) != len(bv) {
				log.Fatalf("%s array %d: length %d vs %d", name, id, len(av), len(bv))
			}
			for i := range av {
				if av[i] != bv[i] {
					log.Fatalf("%s array %d[%d]: %v solo vs %v shared",
						name, id, i, av[i], bv[i])
				}
			}
		}
		fmt.Printf("tenant %-3s bit-identical to its solo run (%d arrays)\n", name, len(a))
	}

	st := g.Snapshot()
	fmt.Printf("gateway served %d sessions over its lifetime (%d still active)\n",
		st.Total, st.Active)
}
