// grout-gateway runs the multi-tenant session gateway: one controller
// fleet shared by many concurrent client programs. Tenants connect with
// grout.Dial (or internal/server.Dial) and get a private array
// namespace, a fair share of the admission queue, and an
// array-byte quota; /healthz and /metrics expose the gateway's
// operational state.
//
// The fleet is either simulated in-process (-sim-workers, the default)
// or real grout-worker processes (-workers addr,addr,...). With
// -shards N the control plane is split into N controller shards behind
// the same gateway address, on either fleet: each shard owns a static
// contiguous partition of the workers and its own drain goroutine, and
// tenants are routed to shards by consistent hash (DESIGN.md §5.8). Over
// -workers each shard is one grout.Connect to its partition.
//
// Usage:
//
//	grout-gateway -listen :7080 -http :7081 -sim-workers 4 -policy round-robin
//	grout-gateway -listen :7080 -sim-workers 16 -shards 4
//	grout-gateway -listen :7080 -workers w1:7070,w2:7070 -max-inflight 16
//	grout-gateway -listen :7080 -workers w1:7070,w2:7070,w3:7070,w4:7070 -shards 2
//	grout-gateway -listen :7080 -sim-workers 8 -rate 500 -burst 32 -shed-depth 256
//
// Production-traffic knobs (DESIGN.md §5.9): -rate/-burst shape each
// session's admission with a lazily refilled token bucket, and
// -shed-depth arms load shedding when a shard's admission backlog
// saturates. Every session gets the same limits; per-tenant weights and
// shedding classes are server.Options.LimitsFor's, for programs that
// embed the gateway. Clients dialed
// with grout.Dial additionally honor the gateway's backpressure
// advisories, pacing themselves as queues run hot.
//
// Flag convention: 0 means the built-in default, negative disables.
package main

import (
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"grout"
	"grout/internal/core"
	"grout/internal/memmodel"
	"grout/internal/server"
	"grout/internal/shard"
)

func main() {
	listen := flag.String("listen", ":7080", "address to serve tenant sessions on")
	httpAddr := flag.String("http", "", "address for /healthz and /metrics (empty disables)")
	workers := flag.String("workers", "", "comma-separated grout-worker addresses (empty = simulated fleet)")
	simWorkers := flag.Int("sim-workers", 4, "simulated workers when -workers is empty")
	shards := flag.Int("shards", 1, "controller shards; the workers are split contiguously across them (1 = one controller)")
	pol := flag.String("policy", "round-robin", "inter-node scheduling policy")
	level := flag.String("level", "", "online policy exploration level: low, medium or high (empty = medium)")
	maxInflight := flag.Int("max-inflight", 0, "per-session in-flight CE cap (0 = unlimited, negative = 1)")
	quotaMiB := flag.Int("quota-mib", 0, "per-session array-byte quota in MiB (0 = unlimited)")
	rate := flag.Float64("rate", 0, "per-session admission rate limit in launches/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "token-bucket burst allowance when -rate is set (0 = 16 default)")
	shedDepth := flag.Int("shed-depth", 0, "shed threshold in queued launches per shard (0 disables shedding)")
	failover := flag.Bool("failover", true, "survive worker failures via lineage recovery")
	flag.Parse()

	logger := log.New(os.Stderr, "grout-gateway: ", log.LstdFlags)
	if *maxInflight < 0 {
		*maxInflight = 1
	}
	if *rate > 0 && *burst == 0 {
		*burst = 16
	}

	cfg := grout.Config{
		Policy:   *pol,
		Level:    *level,
		Numeric:  true,
		Failover: *failover,
	}
	serverOpts := server.Options{
		Limits: core.SessionLimits{
			MaxInflightCEs: *maxInflight,
			MaxArrayBytes:  memmodel.Bytes(*quotaMiB) * memmodel.MiB,
			RatePerSec:     *rate,
			Burst:          *burst,
		},
		ShedDepth: *shedDepth,
		Logger:    logger,
	}
	var (
		ctls    []*core.Controller
		route   server.RouteFunc
		cleanup func()
	)
	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		remotes, ring, err := shard.Build(addrs, *shards, func(_ int, part []string) (*grout.Remote, error) {
			return grout.Connect(part, cfg)
		})
		if err != nil {
			logger.Fatal(err)
		}
		for _, r := range remotes {
			ctls = append(ctls, r.Controller)
		}
		route = ring.Assign
		cleanup = func() {
			for _, r := range remotes {
				_ = r.Close()
			}
		}
		logger.Printf("connected to %d workers across %d controller shards", len(addrs), *shards)
	} else {
		if *simWorkers < 1 {
			logger.Fatal("-sim-workers must be positive")
		}
		cfg.Workers, cfg.Shards = *simWorkers, *shards
		sc, err := grout.NewShardedCluster(cfg)
		if err != nil {
			logger.Fatal(err)
		}
		ctls, route = sc.Plane.Controllers, sc.Plane.Route
		cleanup = func() { _ = sc.Close() }
		logger.Printf("simulated fleet of %d workers across %d controller shards", *simWorkers, *shards)
	}
	g, err := server.NewSharded(ctls, route, *listen, serverOpts)
	if err != nil {
		cleanup()
		logger.Fatal(err)
	}
	logger.Printf("serving tenant sessions on %s (policy %s)", g.Addr(), *pol)

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: g.Handler()}
		go func() {
			logger.Printf("metrics on http://%s/metrics", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Printf("http: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("shutting down")
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	if err := g.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	cleanup()
}
