package core

// TestConcurrentSubmitters exercises the Controller's documented
// concurrency contract: submission-side methods are safe from multiple
// goroutines, serializing on the submission lock. Each goroutine plays an
// independent tenant — its own arrays, its own CE chain, its own
// synchronization points — over one shared controller, and its results
// must be bit-identical to the same chain mirrored on host buffers. The
// tenants launch by Launch (serial: each caller works through its own
// CEs) or by Submit (pipelined: the dispatcher goroutine does). Run
// with -race (ci.sh's core sweep does).

import (
	"fmt"
	"sync"
	"testing"

	"grout/internal/cluster"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

const ccElems = 128

// ccProgram drives one tenant's CE chain against the shared controller
// and checks the outcome against a host-side mirror of the same ops.
func ccProgram(ctl *Controller, tenant int, launch bool) error {
	submit := func(inv Invocation) (err error) {
		if launch {
			_, err = ctl.Launch(inv)
		} else {
			_, err = ctl.Submit(inv)
		}
		return err
	}
	a, err := ctl.NewArray(memmodel.Float32, ccElems)
	if err != nil {
		return err
	}
	b, err := ctl.NewArray(memmodel.Float32, ccElems)
	if err != nil {
		return err
	}
	ma := kernels.NewBuffer(memmodel.Float32, ccElems)
	mb := kernels.NewBuffer(memmodel.Float32, ccElems)
	for j := 0; j < ccElems; j++ {
		av := float64(tenant+1)*float64(j%13) - 6
		bv := float64(j%7) - 3
		a.Buf.Set(j, av)
		ma.Set(j, av)
		b.Buf.Set(j, bv)
		mb.Set(j, bv)
	}
	if _, err := ctl.HostWrite(a.ID); err != nil {
		return err
	}
	if _, err := ctl.HostWrite(b.ID); err != nil {
		return err
	}
	nArg := ScalarRef(float64(ccElems))
	for i := 0; i < 24; i++ {
		if err := submit(Invocation{Kernel: "axpy",
			Args: []ArgRef{ArrRef(a.ID), ArrRef(b.ID), ScalarRef(0.5), nArg}}); err != nil {
			return err
		}
		for j := 0; j < ccElems; j++ {
			ma.Set(j, ma.At(j)+0.5*mb.At(j))
		}
		if i%5 == 2 {
			if err := submit(Invocation{Kernel: "relu",
				Args: []ArgRef{ArrRef(a.ID), nArg}}); err != nil {
				return err
			}
			for j := 0; j < ccElems; j++ {
				if ma.At(j) < 0 {
					ma.Set(j, 0)
				}
			}
		}
		if i%8 == 6 {
			// Mid-run synchronization point (a global barrier).
			if _, err := ctl.HostRead(a.ID); err != nil {
				return err
			}
		}
		// Metric reads must be safe while everyone else submits.
		_ = ctl.Elapsed()
		_ = ctl.Failovers()
	}
	if _, err := ctl.HostRead(a.ID); err != nil {
		return err
	}
	if d := a.Buf.MaxAbsDiff(ma); d != 0 {
		return fmt.Errorf("tenant %d: result diverged from mirror by %g", tenant, d)
	}
	if err := ctl.FreeArray(a.ID); err != nil {
		return err
	}
	return ctl.FreeArray(b.ID)
}

func TestConcurrentSubmitters(t *testing.T) {
	for _, mode := range []struct {
		name   string
		launch bool
	}{{"serial", true}, {"pipelined", false}} {
		t.Run(mode.name, func(t *testing.T) {
			clu := cluster.New(cluster.PaperSpec(4))
			fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
			ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
			defer ctl.Close()

			const tenants = 4
			errs := make(chan error, tenants)
			var wg sync.WaitGroup
			for g := 0; g < tenants; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					errs <- ccProgram(ctl, g, mode.launch)
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := ctl.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
