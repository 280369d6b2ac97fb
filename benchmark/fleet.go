package main

// The system under test, built in-process: TCP workers on loopback, a
// controller connected to them, optionally a gateway and tenant sessions.

import (
	"fmt"

	"grout"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/policy"
	"grout/internal/server"
	"grout/internal/transport"
)

// fleetWorkers is the worker count of every socket workload: with the two
// client goroutines it fills the reference box's two cores without
// oversubscribing them.
const fleetWorkers = 2

// tcpFleet is fleetWorkers in-process workers on loopback and a controller
// connected to them over real sockets.
type tcpFleet struct {
	workers []*transport.WorkerServer
	ctl     *core.Controller
	fabric  *transport.TCPFabric
	remote  *grout.Remote // set when built through grout.Connect
}

// startTCPFleet starts the workers and connects a controller with the
// named policy. Untraced it goes through the public grout.Connect; traced
// it repeats Connect's construction by hand, because the traced fabric has
// to sit between the TCP fabric and the controller and Connect offers no
// place to put it. seams_test.go checks that both fleets produce the same
// outputs and counters.
func startTCPFleet(policyName string, tr *tracer) (*tcpFleet, error) {
	f := &tcpFleet{}
	var addrs []string
	for i := 0; i < fleetWorkers; i++ {
		w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec(fmt.Sprintf("w%d", i+1)), nil)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		addrs = append(addrs, w.Addr())
	}
	if tr == nil {
		r, err := grout.Connect(addrs, grout.Config{Policy: policyName, Pipeline: true})
		if err != nil {
			f.close()
			return nil, err
		}
		f.remote, f.ctl, f.fabric = r, r.Controller, r.Fabric
		return f, nil
	}
	pol, err := policy.New(policyName, nil, policy.Medium)
	if err != nil {
		f.close()
		return nil, err
	}
	fab, err := transport.DialWith(addrs, transport.DialOptions{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.fabric = fab
	wrapped, err := wrapFabric(fab, tr)
	if err != nil {
		f.close()
		return nil, err
	}
	f.ctl = core.NewController(wrapped, wrapPolicy(pol, tr), core.Options{
		Numeric: true, Pipeline: true, OptimizeWindow: grout.DefaultOptimizeWindow,
	})
	return f, nil
}

// close stops the controller, its connections and the workers. The first
// error wins; the rest of the fleet is closed regardless.
func (f *tcpFleet) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.remote != nil {
		keep(f.remote.Close())
	} else {
		if f.ctl != nil {
			keep(f.ctl.Close())
		}
		if f.fabric != nil {
			keep(f.fabric.Close())
		}
	}
	for _, w := range f.workers {
		keep(w.Close())
	}
	return first
}

// workerDeviceStats sums the UVM counters over every device of every
// worker.
func (f *tcpFleet) workerDeviceStats() gpusim.Stats {
	var sum gpusim.Stats
	for _, w := range f.workers {
		for _, d := range w.Runtime().Node().Devices() {
			addStats(&sum, d.Stats())
		}
	}
	return sum
}

func addStats(sum *gpusim.Stats, s gpusim.Stats) {
	sum.PagesMigratedIn += s.PagesMigratedIn
	sum.PagesEvicted += s.PagesEvicted
	sum.PagesWrittenBack += s.PagesWrittenBack
	sum.KernelsRun += s.KernelsRun
}

// gatewayFleet is a tcpFleet behind a session gateway with one dialed
// client per tenant.
type gatewayFleet struct {
	*tcpFleet
	gateway *server.Gateway
	clients []*grout.GatewayClient
}

func startGatewayFleet(tenants int, tr *tracer) (*gatewayFleet, error) {
	tf, err := startTCPFleet("min-transfer-time", tr)
	if err != nil {
		return nil, err
	}
	g := &gatewayFleet{tcpFleet: tf}
	g.gateway, err = server.New(tf.ctl, "127.0.0.1:0", server.Options{})
	if err != nil {
		g.close()
		return nil, err
	}
	for i := 0; i < tenants; i++ {
		c, err := grout.Dial(g.gateway.Addr(), fmt.Sprintf("tenant-%d", i))
		if err != nil {
			g.close()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

func (g *gatewayFleet) close() error {
	var first error
	for _, c := range g.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if g.gateway != nil {
		if err := g.gateway.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := g.tcpFleet.close(); err != nil && first == nil {
		first = err
	}
	return first
}
