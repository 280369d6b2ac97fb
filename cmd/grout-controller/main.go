// grout-controller connects to remote grout-worker processes and runs a
// demonstration workload across them: a runtime-compiled Black–Scholes
// kernel over a partitioned portfolio, with per-worker statistics. It is
// the deployment counterpart of the simulated experiments — the same
// Controller code over real sockets.
//
// With -shards N the worker list is split into N contiguous partitions,
// one grout.Connect (an independent controller shard) per partition,
// exactly as grout-gateway -shards splits it (DESIGN.md §5.8); the
// portfolio partitions are dealt round-robin across the shards, and
// statistics are reported per shard.
//
// Usage:
//
//	grout-worker -listen :7070 &   # on each worker machine
//	grout-worker -listen :7071 &
//	grout-controller -workers localhost:7070,localhost:7071 -policy round-robin
//	grout-controller -workers w1:7070,w2:7070,w3:7070,w4:7070 -shards 2
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"grout"
	"grout/internal/shard"
)

const bsKernel = `
extern "C" __global__ void bs_price(float *call, float *put, const float *spot, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float K = 100.0f;
        float r = 0.05f;
        float vol = 0.2f;
        float T = 1.0f;
        float s = spot[i];
        if (s <= 0.0f) {
            call[i] = 0.0f;
            put[i] = K * expf(0.0f - r * T);
            return;
        }
        float sigRt = vol * sqrtf(T);
        float d1 = (logf(s / K) + (r + vol * vol / 2.0f) * T) / sigRt;
        float d2 = d1 - sigRt;
        call[i] = s * 0.5f * erfcf((0.0f - d1) / sqrtf(2.0f))
                - K * expf(0.0f - r * T) * 0.5f * erfcf((0.0f - d2) / sqrtf(2.0f));
        put[i] = K * expf(0.0f - r * T) * 0.5f * erfcf(d2 / sqrtf(2.0f))
               - s * 0.5f * erfcf(d1 / sqrtf(2.0f));
    }
}`

func main() {
	workers := flag.String("workers", "localhost:7070", "comma-separated worker addresses")
	shards := flag.Int("shards", 1, "controller shards; the worker list is split contiguously across them")
	policyName := flag.String("policy", "round-robin",
		"inter-node policy: "+strings.Join(grout.Policies(), ", "))
	level := flag.String("level", "medium", "exploration level for online policies")
	partitions := flag.Int("partitions", 4, "portfolio partitions (CEs)")
	elems := flag.Int("elems", 4096, "options per partition")
	failover := flag.Bool("failover", false, "survive worker failures: reroute CEs and replay lost arrays from lineage (DESIGN.md §5.4)")
	retries := flag.Int("retries", 0, "retry a transiently-failing worker this many times before writing it off")
	retryBackoff := flag.Duration("retry-backoff", 0, "base retry delay, doubling per attempt (0 = 50ms default)")
	dialTimeout := flag.Duration("dial-timeout", 0, "TCP connect deadline (0 = 5s default, negative disables)")
	timeout := flag.Duration("timeout", 0, "progress deadline while a worker owes a control response or the next bulk chunk (0 = 30s default, negative disables)")
	flag.Parse()

	cfg := grout.Config{
		Policy: *policyName, Level: *level,
		Failover: *failover, RetryAttempts: *retries, RetryBackoff: *retryBackoff,
		DialTimeout: *dialTimeout, Timeout: *timeout,
	}
	addrs := strings.Split(*workers, ",")
	remotes, _, err := shard.Build(addrs, *shards, func(_ int, part []string) (*grout.Remote, error) {
		return grout.Connect(part, cfg)
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, r := range remotes {
			r.Close()
		}
	}()
	fmt.Printf("connected to %d worker(s) across %d shard(s); policy %s\n",
		len(addrs), *shards, *policyName)

	// Build the kernel on every shard: each controller compiles for its
	// own partition's workers.
	kerns := make([]*grout.Kernel, *shards)
	for s, r := range remotes {
		build, err := r.Context.Eval(grout.GrOUT, "buildkernel")
		if err != nil {
			log.Fatal(err)
		}
		k, err := build.Build.Build(bsKernel,
			"pointer float, pointer float, const pointer float, sint32")
		if err != nil {
			log.Fatal(err)
		}
		kerns[s] = k
	}

	start := time.Now()
	type part struct{ spot, call, put *grout.DeviceArray }
	parts := make([]part, *partitions)
	for p := range parts {
		// Portfolio partitions are dealt round-robin across shards; each
		// partition's arrays and launch stay on its shard's controller.
		s := p % *shards
		ctx := remotes[s].Context
		mk := func() *grout.DeviceArray {
			v, err := ctx.Eval(grout.GrOUT, fmt.Sprintf("float[%d]", *elems))
			if err != nil {
				log.Fatal(err)
			}
			return v.Array
		}
		parts[p] = part{spot: mk(), call: mk(), put: mk()}
		for i := 0; i < *elems; i++ {
			if err := parts[p].spot.Set(int64(i), 40+float64((i+p*13)%120)); err != nil {
				log.Fatal(err)
			}
		}
		grid := (*elems + 255) / 256
		if err := kerns[s].Configure(grid, 256).Launch(
			parts[p].call, parts[p].put, parts[p].spot, *elems); err != nil {
			log.Fatal(err)
		}
	}

	// Verify put-call parity across every partition.
	worst := 0.0
	for _, p := range parts {
		for i := int64(0); i < int64(*elems); i += 97 {
			s, _ := p.spot.Get(i)
			c, _ := p.call.Get(i)
			pu, _ := p.put.Get(i)
			if d := math.Abs((c - pu) - (s - 100*math.Exp(-0.05))); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("priced %d options in %v (wall clock); worst parity error %.2e\n",
		*partitions**elems, time.Since(start).Round(time.Millisecond), worst)

	for s, r := range remotes {
		if *shards > 1 {
			fmt.Printf("shard %d:\n", s)
		}
		for _, id := range r.Fabric.Workers() {
			st, err := r.Fabric.Stats(id)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %v: %d kernels executed, %d arrays resident\n", id, st.Kernels, st.Arrays)
		}
		fmt.Printf("  scheduling overhead per CE: %v\n", r.Controller.MeanSchedulingOverhead())
	}
}
