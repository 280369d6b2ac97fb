// Package grout is a Go reproduction of "GrOUT: Transparent Scale-Out to
// Overcome UVM's Oversubscription Slowdowns" (Di Dio Lavore et al.,
// IPDPSW 2024): a language- and domain-agnostic runtime that distributes
// GPU workloads over multiple multi-GPU nodes to escape the performance
// collapse of oversubscribed Unified Virtual Memory.
//
// Since no GPUs are assumed, workers run over a calibrated discrete-event
// GPU/UVM simulator (see internal/gpusim); kernels additionally carry
// numeric host implementations, so programs compute real results while
// execution time is modelled. A real TCP deployment mode
// (internal/transport, cmd/grout-worker, cmd/grout-controller) runs the
// identical controller against remote worker processes.
//
// The primary entry points:
//
//   - NewSimulatedCluster: a controller plus N in-process simulated
//     workers — the configuration all paper experiments use.
//   - NewSingleNode: the GrCUDA single-node baseline.
//   - Connect: a controller over real TCP workers.
//
// Each returns a polyglot Context exposing the paper's API (Listing 1):
// Eval(language, "float[N]"), Eval(language, "buildkernel"), kernel
// Configure(grid, block).Launch(args...).
package grout

import (
	"fmt"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/policy"
	"grout/internal/polyglot"
	"grout/internal/server"
	"grout/internal/shard"
	"grout/internal/transport"
)

// Re-exported types: the public names a downstream user needs.
type (
	// Controller is GrOUT's scheduling front end (paper Algorithm 1). Its
	// per-CE state is bounded: Traces, WriteChromeTrace and WriteGantt
	// show the most recent 4096 CEs, while Elapsed, MovedBytes and the
	// other totals cover the whole run (DESIGN.md §5.1, "State lifetime").
	Controller = core.Controller
	// Context is the polyglot evaluation context (paper Listing 1).
	Context = polyglot.Context
	// DeviceArray is a framework-managed UVM array.
	DeviceArray = polyglot.DeviceArray
	// Kernel is a runtime-built kernel handle (Eval "buildkernel").
	Kernel = polyglot.KernelHandle
	// Language selects GrCUDA (single node) or GrOUT (distributed).
	Language = polyglot.Language
	// Policy is an inter-node scheduling policy (paper §IV-D).
	Policy = policy.Policy
	// NodeID identifies cluster endpoints.
	NodeID = cluster.NodeID
)

// The two polyglot languages (paper Listing 2's one-line change).
const (
	GrCUDA = polyglot.GrCUDA
	GrOUT  = polyglot.GrOUT
)

// Config shapes a simulated deployment.
type Config struct {
	// Workers is the number of GPU nodes (each the paper's 2×V100
	// 16 GiB OCI shape). Default 2, as in the paper's main evaluation.
	// Every node starts as a scheduling member; to start on fewer, retire
	// the rest with Controller.RetireWorker before submitting anything,
	// and Controller.AddWorker activates them live later (DESIGN.md §5.9).
	Workers int
	// Shards splits the simulated controller fleet into N independent
	// shards behind one logical plane (DESIGN.md §5.8): each shard
	// controller owns a static partition of the workers and its own
	// array-ID namespace, and tenants are routed to shards by
	// consistent hash. 0 or 1 means the classic single controller.
	// Only NewShardedCluster consults this field.
	Shards int
	// Policy is the inter-node scheduling policy name: "round-robin",
	// "vector-step", "min-transfer-size" or "min-transfer-time".
	// Default "vector-step" (the paper's offline roofline).
	Policy string
	// Vector parameterizes vector-step (default [1]).
	Vector []int
	// Level is the online policies' exploration level: "low", "medium"
	// or "high" (default medium).
	Level string
	// Numeric enables real data: kernels execute host implementations
	// and transfers ship buffer contents. Use for correctness-sensitive
	// programs; disable for large cost-model-only sweeps.
	Numeric bool
	// Deprecated: ignored; every controller pipelines. Submit returns
	// after the scheduling decision, and Launch, HostRead and HostWrite
	// wait where required (DESIGN.md §5.1).
	Pipeline bool
	// Deprecated: ignored; every CE is admitted by itself (DESIGN.md
	// §5.6).
	OptimizeWindow int
	// Failover makes the Controller survive worker failures: failed CEs
	// reroute to survivors, and arrays whose only copy died are
	// recomputed from lineage (DESIGN.md §5.4). ErrDataLost only
	// surfaces when a lineage root itself is unrecoverable.
	Failover bool
	// RetryAttempts is how many times a transient fabric failure (dial,
	// timeout, severed connection) retries in place, with capped
	// exponential backoff, before the worker is written off. Default 0
	// (fail over immediately).
	RetryAttempts int
	// RetryBackoff is the base retry delay, doubling per attempt up to
	// 2 s (default 50ms when retries are enabled). Connect's fabric then
	// redials a broken worker link once per attempt, never on its own.
	RetryBackoff time.Duration
	// DialTimeout bounds TCP connection establishment for Connect (0 =
	// 5 s default, negative disables). Ignored by simulated clusters.
	DialTimeout time.Duration
	// Timeout is Connect's progress deadline: while a worker owes a
	// frame — a control response, the next chunk of a transfer — it must
	// arrive within Timeout (0 = 30 s default, negative disables). Total
	// transfer time stays unbounded. Ignored by simulated clusters.
	Timeout time.Duration
}

// DefaultOptimizeWindow was the lookahead window's default size.
//
// Deprecated: unused; Config.OptimizeWindow is ignored.
const DefaultOptimizeWindow = 32

// coreOptions builds the controller options shared by both deployments.
func (c Config) coreOptions(numeric bool) core.Options {
	return core.Options{
		Numeric:  numeric,
		Failover: c.Failover,
		Retry: core.RetryPolicy{
			Attempts: c.RetryAttempts,
			Backoff:  c.RetryBackoff,
		},
	}
}

func (c Config) policy() (policy.Policy, error) {
	name := c.Policy
	if name == "" {
		name = "vector-step"
	}
	level := policy.Medium
	if c.Level != "" {
		var err error
		level, err = policy.LevelFromName(c.Level)
		if err != nil {
			return nil, err
		}
	}
	return policy.New(name, c.Vector, level)
}

// Cluster is a simulated GrOUT deployment.
type Cluster struct {
	// Controller is the scheduling front end.
	Controller *core.Controller
	// Context is the polyglot API surface.
	Context *polyglot.Context
	// Fabric exposes the in-process workers (inspection and tests).
	Fabric *core.LocalFabric
}

// NewSimulatedCluster builds a controller over cfg.Workers in-process
// simulated GPU nodes joined by the paper's OCI interconnect.
func NewSimulatedCluster(cfg Config) (*Cluster, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	clu := cluster.New(cluster.PaperSpec(workers))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), cfg.Numeric)
	ctl := core.NewController(fab, pol, cfg.coreOptions(cfg.Numeric))
	return &Cluster{
		Controller: ctl,
		Context:    polyglot.NewGroutContext(ctl),
		Fabric:     fab,
	}, nil
}

// ShardedCluster is a simulated GrOUT deployment whose control plane is
// split into Config.Shards independent controller shards over one
// worker fleet (DESIGN.md §5.8). Pass Plane.Controllers and Plane.Route
// to server.NewSharded to serve it as one logical gateway.
type ShardedCluster struct {
	// Plane owns the shard controllers, the consistent-hash ring and
	// the shared fabric.
	Plane *shard.Plane
	// Contexts expose the polyglot API per shard, index-aligned with
	// Plane.Controllers.
	Contexts []*polyglot.Context
}

// NewShardedCluster builds cfg.Shards controller shards over cfg.Workers
// in-process simulated GPU nodes. Each shard schedules only its own
// worker partition and owns the arrays its tenants allocate.
func NewShardedCluster(cfg Config) (*ShardedCluster, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 2
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 1
	}
	p, err := shard.New(shard.Options{
		Shards:    shards,
		Workers:   workers,
		NewPolicy: func(int) (policy.Policy, error) { return cfg.policy() },
		Core:      cfg.coreOptions(cfg.Numeric),
	})
	if err != nil {
		return nil, err
	}
	sc := &ShardedCluster{Plane: p}
	for _, ctl := range p.Controllers {
		sc.Contexts = append(sc.Contexts, polyglot.NewGroutContext(ctl))
	}
	return sc, nil
}

// Close drains and stops every shard controller. Idempotent and
// nil-receiver safe, like Cluster.Close.
func (s *ShardedCluster) Close() error {
	if s == nil || s.Plane == nil {
		return nil
	}
	return s.Plane.Close()
}

// SingleNode is the GrCUDA baseline: one simulated two-GPU node.
type SingleNode struct {
	// Runtime is the GrCUDA engine.
	Runtime *grcuda.Runtime
	// Context is the polyglot API surface (language GrCUDA).
	Context *polyglot.Context
}

// NewSingleNode builds the paper's single-node baseline.
func NewSingleNode(numeric bool) *SingleNode {
	rt := grcuda.NewRuntime(gpusim.NewNode(gpusim.OCIWorkerSpec("single")),
		kernels.StdRegistry(), grcuda.Options{ExecuteNumeric: numeric})
	return &SingleNode{Runtime: rt, Context: polyglot.NewSingleNodeContext(rt)}
}

// Remote is a GrOUT deployment over real TCP workers.
type Remote struct {
	Controller *core.Controller
	Context    *polyglot.Context
	Fabric     *transport.TCPFabric
}

// Connect dials worker processes (started with cmd/grout-worker) and
// builds a controller over them. Data is always numeric in this mode.
func Connect(workerAddrs []string, cfg Config) (*Remote, error) {
	pol, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	fab, err := transport.DialWith(workerAddrs, transport.DialOptions{
		DialTimeout: cfg.DialTimeout,
		Timeout:     cfg.Timeout,
		Redial:      cfg.RetryAttempts > 0,
	})
	if err != nil {
		return nil, err
	}
	ctl := core.NewController(fab, pol, cfg.coreOptions(true))
	return &Remote{
		Controller: ctl,
		Context:    polyglot.NewGroutContext(ctl),
		Fabric:     fab,
	}, nil
}

// Close releases the remote deployment's connections (draining the
// dispatch pipeline first when one is running). It is idempotent and
// safe on a nil receiver, so `defer r.Close()` works even when Connect
// failed and returned nil.
func (r *Remote) Close() error {
	if r == nil {
		return nil
	}
	var err error
	if r.Controller != nil {
		err = r.Controller.Close()
	}
	if r.Fabric != nil {
		if cerr := r.Fabric.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close drains and stops the controller's dispatch pipeline, if any.
// Idempotent and nil-receiver safe, like Remote.Close.
func (c *Cluster) Close() error {
	if c == nil || c.Controller == nil {
		return nil
	}
	return c.Controller.Close()
}

// GatewayClient is one tenant session on a multi-tenant gateway
// (cmd/grout-gateway). It implements the workloads.Session surface, so
// programs written against it run unchanged in-process or remotely.
// Launches are asynchronous: Launch returning nil means "accepted for
// sending", a refusal is reported by the next call that observes it,
// and every call but Launch synchronizes (DESIGN.md §5.5).
type GatewayClient = server.Client

// ShedError is how a GatewayClient reports launches the gateway shed:
// it wraps core.ErrShedded and says how many launches since the previous
// synchronizing call ran before the first shed one.
type ShedError = server.ShedError

// Backpressure is the gateway's per-tenant flow-control advisory: queue
// fill and capacity — the capacity is also the client's launch window,
// the most launches it may have unacknowledged — plus, for a
// rate-limited tenant out-running its token bucket, a suggested pause.
// Dialed clients honor the pause by default, adaptively pacing their
// launches; GatewayClient.SetHonorBackpressure(false) opts out of the
// pacing, never of the window.
type Backpressure = transport.Backpressure

// Dial opens a tenant session on the multi-tenant gateway at addr.
// tenant labels the session in the gateway's /metrics; empty picks a
// server-assigned name. Timeouts are the transport defaults; use
// server.Dial directly to tune them. The session honors the gateway's
// backpressure advisories (see Backpressure).
func Dial(addr, tenant string) (*GatewayClient, error) {
	return server.Dial(addr, tenant, 0, 0)
}

// Policies lists the available inter-node policy names.
func Policies() []string { return policy.Names() }

// Validate sanity-checks a config without building anything.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("grout: negative worker count %d", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("grout: negative shard count %d", c.Shards)
	}
	if c.Shards > 0 && c.Workers > 0 && c.Shards > c.Workers {
		return fmt.Errorf("grout: %d shards need at least %d workers, have %d",
			c.Shards, c.Shards, c.Workers)
	}
	_, err := c.policy()
	return err
}
