// grout-worker runs one GrOUT Worker: a GrCUDA runtime over a simulated
// multi-GPU node, serving the controller protocol on TCP. Start one per
// machine, then point grout-controller (or grout.Connect) at them.
//
// Usage:
//
//	grout-worker -listen :7070 -gpus 2 -gpu-mem 16 -host-mem 180
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/transport"
)

func main() {
	listen := flag.String("listen", ":7070", "address to listen on")
	gpus := flag.Int("gpus", 2, "simulated GPUs on this node")
	gpuMem := flag.Int("gpu-mem", 16, "GiB of memory per simulated GPU")
	hostMem := flag.Int("host-mem", 180, "GiB of host memory")
	name := flag.String("name", "worker", "node name in logs")
	dialTimeout := flag.Duration("dial-timeout", 0, "deadline for dialing peer workers on push transfers (0 = 5s default, negative disables)")
	timeout := flag.Duration("timeout", 0, "per-chunk write deadline on outgoing bulk streams, and the wait for a pushed array's acknowledgement (0 = 30s default, negative disables)")
	prefetch := flag.String("prefetch", "", "UVM prefetch policy: "+strings.Join(gpusim.PrefetchPolicyNames(), ", ")+" (empty = eager)")
	evict := flag.String("evict", "", "UVM eviction policy: "+strings.Join(gpusim.EvictionPolicyNames(), ", ")+" (empty = lru)")
	flag.Parse()

	if *gpus < 1 || *gpuMem < 1 || *hostMem < 1 {
		log.Fatal("grout-worker: -gpus, -gpu-mem and -host-mem must be positive")
	}
	spec := gpusim.NodeSpec{
		Name:       *name,
		HostMemory: memmodel.Bytes(*hostMem) * memmodel.GiB,
	}
	for i := 0; i < *gpus; i++ {
		d := gpusim.V100Spec(fmt.Sprintf("%s/gpu%d", *name, i))
		d.Memory = memmodel.Bytes(*gpuMem) * memmodel.GiB
		spec.Devices = append(spec.Devices, d)
	}

	logger := log.New(os.Stderr, "grout-worker: ", log.LstdFlags)
	srv, err := transport.NewWorkerServerOpts(*listen, spec, logger,
		transport.ServerOptions{
			DialTimeout: *dialTimeout,
			Timeout:     *timeout,
			Prefetch:    *prefetch,
			Evict:       *evict,
		})
	if err != nil {
		log.Fatal(err)
	}
	logger.Printf("%s serving %d simulated GPUs (%d GiB each) on %s",
		*name, *gpus, *gpuMem, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
}
