package server

// Tests of the depth-1 path (DESIGN.md §5.5): a launch is admitted on its
// tenant's serve goroutine when nobody is waiting for admission, a Sync
// waits for its own session only, and a launch that fails at dispatch is
// reported by the Sync that waited for it. The hazards of the path — a
// burst behind an in-flight cap, the flip between inline and queued
// admission mid-stream — are here by name.
// Everything runs under -race in ci.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/kernels"
	"grout/internal/policy"
	"grout/internal/shard"
	"grout/internal/sim"
	"grout/internal/transport"
)

// kernelFabric is a LocalFabric whose launches of one kernel wait for the
// gate (when there is one) and then fail with fail (when that is set).
type kernelFabric struct {
	core.Fabric
	core.KernelBuilder
	kernel  string
	arrived chan struct{} // one send per such launch, as it arrives
	gate    chan struct{}
	fail    error
}

func (f *kernelFabric) Launch(w cluster.NodeID, inv core.Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	if inv.Kernel == f.kernel {
		if f.gate != nil {
			f.arrived <- struct{}{}
			<-f.gate
		}
		if f.fail != nil {
			return 0, f.fail
		}
	}
	return f.Fabric.Launch(w, inv, ready)
}

// kernelSystem is gwSystem behind a kernelFabric.
func kernelSystem(t *testing.T, f *kernelFabric) *core.Controller {
	t.Helper()
	local := core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true)
	f.Fabric, f.KernelBuilder = local, local
	ctl := core.NewController(f, policy.NewRoundRobin(), core.Options{Numeric: true})
	t.Cleanup(func() { ctl.Close() })
	return ctl
}

func (sh *shardState) admissions() (all, drained int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ces, sh.drained.Load()
}

// TestInlineAdmitDepthOne: tenants' Launch+Sync steps through pipelined
// controllers over the TCP fabric are admitted on their serve goroutines
// and started by them — no shard's drain loop admits any and no shard's
// batch dispatcher is handed any — and compute what they should. The
// gateway is built as grout-gateway -workers builds it (shard.Build, one
// TCP fabric per partition): one controller over two workers, and two
// shards over four with two tenants each.
func TestInlineAdmitDepthOne(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		workers, shards, tenants int
	}{
		{"one controller", 2, 1, 2},
		{"two TCP shards", 4, 2, 4},
	} {
		t.Run(tc.name, func(t *testing.T) { inlineAdmitDepthOne(t, tc.workers, tc.shards, tc.tenants) })
	}
}

// tcpShard is one shard of a gateway over TCP workers: a controller over
// a TCP fabric of its own, as grout.Connect builds it.
type tcpShard struct {
	ctl *core.Controller
	fab *transport.TCPFabric
}

func (s tcpShard) Close() error {
	err := s.ctl.Close()
	if ferr := s.fab.Close(); err == nil {
		err = ferr
	}
	return err
}

func inlineAdmitDepthOne(t *testing.T, workers, shards, tenants int) {
	const steps = 200
	var addrs []string
	for i := 0; i < workers; i++ {
		w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec(fmt.Sprintf("w%d", i+1)), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		addrs = append(addrs, w.Addr())
	}
	plane, ring, err := shard.Build(addrs, shards, func(_ int, part []string) (tcpShard, error) {
		fab, err := transport.Dial(part)
		if err != nil {
			return tcpShard{}, err
		}
		return tcpShard{core.NewController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{Numeric: true}), fab}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctls := make([]*core.Controller, shards)
	for s, sh := range plane {
		t.Cleanup(func() { _ = sh.Close() })
		ctls[s] = sh.ctl
	}
	g := shardedStart(t, ctls, ring.Assign)

	step := func(c *Client, n int) error {
		for i := 0; i < n; i++ {
			if err := c.Launch("scale", 0, 0, core.ArrRef(1), core.ArrRef(1), core.ScalarRef(-1), core.ScalarRef(gwElems)); err != nil {
				return err
			}
			if err := c.Sync(); err != nil {
				return err
			}
		}
		return nil
	}
	clients := make([]*Client, tenants)
	served := make([]int, shards)
	for k := range clients {
		clients[k] = gwDial(t, g, fmt.Sprintf("sync-%d", k))
		s, _, err := clients[k].ShardInfo()
		if err != nil {
			t.Fatal(err)
		}
		served[s]++
		a := trafficArray(t, clients[k])
		if a != 1 {
			t.Fatalf("first array has id %d", a)
		}
		// The array's first launch ships it (blocking path, on the batch
		// dispatcher); from then on it is resident where the policy keeps
		// placing its launches. A blocking launch resolves a moment before
		// the dispatcher lets go of its job, so the step right behind one
		// may still be handed to it: warm up until a step is not.
		for handed := -1; handed != ctls[s].DispatcherJobs(); {
			handed = ctls[s].DispatcherJobs()
			if err := step(clients[k], 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	all0, drained0, handed0 := make([]int64, shards), make([]int64, shards), make([]int, shards)
	for s, sh := range g.shards {
		if served[s] == 0 {
			t.Fatalf("shard %d serves none of the %d tenants", s, tenants)
		}
		all0[s], drained0[s] = sh.admissions()
		handed0[s] = ctls[s].DispatcherJobs()
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if err := step(c, steps); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	for s, sh := range g.shards {
		all, drained := sh.admissions()
		if want := int64(served[s] * steps); all-all0[s] != want || drained != drained0[s] {
			t.Fatalf("shard %d: %d launches admitted, %d of them by the drain loop; want %d and 0",
				s, all-all0[s], drained-drained0[s], want)
		}
		if handed := ctls[s].DispatcherJobs() - handed0[s]; handed != 0 {
			t.Fatalf("shard %d: the dispatcher was handed %d of %d depth-1 launches, want 0",
				s, handed, served[s]*steps)
		}
	}
	for k, c := range clients {
		if err := c.HostRead(1); err != nil {
			t.Fatal(err)
		}
		if got := c.Buffer(1).At(5); got != 1 { // an even number of sign flips
			t.Fatalf("tenant %d: element 5 = %v after an even number of sign flips of 1", k, got)
		}
	}
}

// TestSessionScopedSyncThroughGateway: with tenant B's CE held in the
// fabric, tenant A's Sync returns — it waits for A's launches, not the
// fleet's — while B's own Sync waits until the CE is let go.
func TestSessionScopedSyncThroughGateway(t *testing.T) {
	f := &kernelFabric{kernel: "fill", arrived: make(chan struct{}, 1), gate: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(f.gate) }) }
	defer release() // before the controller's Close, which drains
	g := gwStart(t, kernelSystem(t, f), Options{})
	a, b := gwDial(t, g, "a"), gwDial(t, g, "b")
	aa, ba := trafficArray(t, a), trafficArray(t, b)
	for i := 0; i < 3; i++ {
		if err := relu(a, aa); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Launch("fill", 0, 0, core.ArrRef(ba), core.ScalarRef(2), core.ScalarRef(gwElems)); err != nil {
		t.Fatal(err)
	}
	bSynced := make(chan error, 1)
	go func() { bSynced <- b.Sync() }()
	<-f.arrived

	aSynced := make(chan error, 1)
	go func() { aSynced <- a.Sync() }()
	select {
	case err := <-aSynced:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tenant a's Sync waits for tenant b's CE")
	}
	select {
	case err := <-bSynced:
		t.Fatalf("tenant b's Sync returned (%v) with its CE held in the fabric", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-bSynced; err != nil {
		t.Fatal(err)
	}
}

// TestBurstUnderInflightCap: one tenant, an in-flight cap of 1, a
// queue of 2, and a burst of launches that arrive together (sent past the
// client's launch window, as a client that ignores it would). The first is
// admitted inline; the second finds the cap taken and queues, and so does
// the third; the fourth finds the queue full and the serve goroutine
// blocks on it. The inline launch must dispatch and return the cap, so the
// drain loop admits the rest and the burst completes.
func TestBurstUnderInflightCap(t *testing.T) {
	const burst = 8
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits:     core.SessionLimits{MaxInflightCEs: 1},
		queueDepth: 2,
	})
	c := gwDial(t, g, "capped")
	a := trafficArray(t, c)
	done := make(chan error, 1)
	go func() {
		req := transport.SessionRequest{Kind: transport.SessLaunch, Inv: core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(a), core.ScalarRef(gwElems)}}}
		for i := 0; i < burst; i++ {
			if err := c.conn.Start(&req, func(*transport.SessionResponse, error) {}); err != nil {
				done <- err
				return
			}
		}
		done <- c.Sync() // one write: the burst and the Sync behind it
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a burst behind the in-flight cap never completed")
	}
	all, drained := g.shards[0].admissions()
	if all != burst || drained == 0 || drained == all {
		t.Fatalf("%d launches admitted, %d by the drain loop: want %d, some inline and some queued", all, drained, burst)
	}
}

// TestInlineAdmitOrderAcrossFlip: three tenants under random caps, weights
// and rate limits, so that each one's admission alternates between its
// serve goroutine and the drain loop mid-stream. Every tenant's chain is
// order-sensitive (axpy and relu do not commute), so a launch admitted
// ahead of an earlier one of its session shows as a result that differs
// from the solo run.
func TestInlineAdmitOrderAcrossFlip(t *testing.T) {
	const tenants, iters = 3, 30
	want := soloBaselines(t, tenants, iters)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		limits := map[string]core.SessionLimits{}
		for k := 0; k < tenants; k++ {
			limits[fmt.Sprintf("tenant-%c", 'a'+k)] = core.SessionLimits{
				MaxInflightCEs: 1 + rng.Intn(3),
				Weight:         1 + rng.Intn(3),
				RatePerSec:     float64(2000 + rng.Intn(6000)),
				Burst:          1 + rng.Intn(4),
			}
		}
		g := gwStart(t, gwSystem(t, nil), Options{
			queueDepth: 1 + rng.Intn(4),
			LimitsFor: func(tenant string) (core.SessionLimits, bool) {
				l, ok := limits[tenant]
				return l, ok
			},
		})
		runTenants(t, g, want, iters)
		all, drained := g.shards[0].admissions()
		if drained == 0 || drained == all {
			t.Fatalf("seed %d: %d of %d launches admitted by the drain loop: admission never flipped", seed, drained, all)
		}
	}
}

// TestSyncReportsDispatchFailure: a launch that fails at dispatch — after
// its Submit returned, while Sync waits for it — is reported by that Sync,
// not by the call after it.
func TestSyncReportsDispatchFailure(t *testing.T) {
	boom := errors.New("boom at dispatch")
	g := gwStart(t, kernelSystem(t, &kernelFabric{kernel: "fill", fail: boom}), Options{})
	c := gwDial(t, g, "unlucky")
	a := trafficArray(t, c)
	if err := relu(c, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := c.Launch("fill", 0, 0, core.ArrRef(a), core.ScalarRef(2), core.ScalarRef(gwElems)); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("the Sync that waited for the failed launch returned %v, want %v", err, boom)
	}
	if err := c.Sync(); err == nil || !strings.Contains(err.Error(), boom.Error()) {
		t.Fatalf("the failure did not stick: second Sync returned %v", err)
	}
}
