package server

// End-to-end tests of the multi-tenant gateway over real TCP: namespace
// isolation, bit-identical results under concurrency, fairness knobs,
// chaos-fabric failover, disconnect teardown, quotas, sticky launch
// errors and the metrics surface. Everything runs under -race in ci.
//
// The bit-identity baseline is a solo run: the same client program on a
// gateway all by itself. Kernels are element-wise deterministic, so a
// tenant's results must not depend on who else shares the fleet.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/workloads"
)

const gwElems = 96

// gwSystem builds a pipelined numeric controller over a simulated
// 4-worker cluster, optionally behind a chaos fabric.
func gwSystem(t testing.TB, chaos *core.ChaosOptions) *core.Controller {
	t.Helper()
	return gwSystemN(t, 4, chaos)
}

// gwSystemN is gwSystem with a worker count.
func gwSystemN(t testing.TB, workers int, chaos *core.ChaosOptions) *core.Controller {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(workers))
	var fab core.Fabric = core.NewLocalFabric(clu, kernels.StdRegistry(), true)
	opts := core.Options{Numeric: true}
	if chaos != nil {
		fab = core.NewChaosFabric(fab, *chaos)
		opts.Failover = true
	}
	ctl := core.NewController(fab, policy.NewRoundRobin(), opts)
	t.Cleanup(func() { ctl.Close() })
	return ctl
}

func gwStart(t testing.TB, ctl *core.Controller, opt Options) *Gateway {
	t.Helper()
	g, err := New(ctl, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func gwDial(t testing.TB, g *Gateway, name string) *Client {
	t.Helper()
	c, err := Dial(g.Addr(), name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// clientProgram runs a deterministic per-tenant CE chain through the
// workloads.Session surface and returns the final array contents.
func clientProgram(s workloads.Session, tenant, iters int) (*kernels.Buffer, error) {
	a, err := s.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		return nil, err
	}
	b, err := s.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		return nil, err
	}
	ab, bb := s.Buffer(a), s.Buffer(b)
	for j := 0; j < gwElems; j++ {
		ab.Set(j, float64(tenant+2)*float64(j%11)-7)
		bb.Set(j, float64(j%5)-2)
	}
	if err := s.HostWrite(a); err != nil {
		return nil, err
	}
	if err := s.HostWrite(b); err != nil {
		return nil, err
	}
	nArg := core.ScalarRef(float64(gwElems))
	for i := 0; i < iters; i++ {
		if err := s.Launch("axpy", 1024, 256,
			core.ArrRef(a), core.ArrRef(b), core.ScalarRef(0.5), nArg); err != nil {
			return nil, err
		}
		if i%4 == 1 {
			if err := s.Launch("relu", 1024, 256, core.ArrRef(a), nArg); err != nil {
				return nil, err
			}
		}
		if i%9 == 7 {
			if err := s.HostRead(a); err != nil {
				return nil, err
			}
		}
	}
	if err := s.HostRead(a); err != nil {
		return nil, err
	}
	out := kernels.NewBuffer(memmodel.Float32, gwElems)
	for j := 0; j < gwElems; j++ {
		out.Set(j, s.Buffer(a).At(j))
	}
	return out, nil
}

// soloBaselines runs each tenant's program alone on a fresh fleet.
func soloBaselines(t *testing.T, tenants, iters int) []*kernels.Buffer {
	t.Helper()
	want := make([]*kernels.Buffer, tenants)
	for k := 0; k < tenants; k++ {
		g := gwStart(t, gwSystem(t, nil), Options{})
		c := gwDial(t, g, fmt.Sprintf("solo-%d", k))
		buf, err := clientProgram(c, k, iters)
		if err != nil {
			t.Fatalf("solo tenant %d: %v", k, err)
		}
		want[k] = buf
	}
	return want
}

// runTenants runs all tenant programs concurrently against one gateway
// and checks each against its solo baseline.
func runTenants(t *testing.T, g *Gateway, want []*kernels.Buffer, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, len(want))
	for k := range want {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(g.Addr(), fmt.Sprintf("tenant-%c", 'a'+k), 0, 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			got, err := clientProgram(c, k, iters)
			if err != nil {
				errs <- fmt.Errorf("tenant %d: %w", k, err)
				return
			}
			if d := got.MaxAbsDiff(want[k]); d != 0 {
				errs <- fmt.Errorf("tenant %d diverged from its solo run by %g", k, d)
				return
			}
			errs <- nil
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Concurrent tenants over real TCP must be bit-identical to solo runs.
func TestGatewayTenantsBitIdentical(t *testing.T) {
	const tenants, iters = 4, 18
	want := soloBaselines(t, tenants, iters)
	g := gwStart(t, gwSystem(t, nil), Options{})
	runTenants(t, g, want, iters)
	// A session's goodbye is answered before its teardown runs.
	eventually(t, 5*time.Second, "sessions torn down", func() bool { return g.Snapshot().Active == 0 })
	if st := g.Snapshot(); st.Total != int64(tenants) {
		t.Fatalf("lifecycle counters off after runs: %+v", st)
	}
}

// The fairness knobs — tight in-flight cap, tiny queue, uneven weights —
// must change scheduling only, never results.
func TestGatewayFairnessKnobsPreserveResults(t *testing.T) {
	const tenants, iters = 3, 14
	want := soloBaselines(t, tenants, iters)
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits:     core.SessionLimits{MaxInflightCEs: 1, Weight: 3},
		QueueDepth: 2,
	})
	runTenants(t, g, want, iters)
}

// A worker dying mid-run (chaos fabric) must stay invisible to every
// tenant: lineage recovery is per-tenant-correct and results stay
// bit-identical to healthy solo runs.
func TestGatewayChaosFailoverBitIdentical(t *testing.T) {
	const tenants, iters = 3, 14
	want := soloBaselines(t, tenants, iters)
	chaos := &core.ChaosOptions{KillAtLaunch: map[cluster.NodeID]int{2: 5}}
	g := gwStart(t, gwSystem(t, chaos), Options{})
	runTenants(t, g, want, iters)
	if st := g.Snapshot(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1 (the chaos kill)", st.Failovers)
	}
}

// An abrupt disconnect tears the tenant down — session unregistered,
// arrays freed — while its neighbor's run stays bit-identical.
func TestGatewayDisconnectCleanup(t *testing.T) {
	const iters = 14
	want := soloBaselines(t, 1, iters)
	g := gwStart(t, gwSystem(t, nil), Options{})

	victim := gwDial(t, g, "victim")
	va, err := victim.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		t.Fatal(err)
	}
	victim.Buffer(va).Fill(1)
	if err := victim.HostWrite(va); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := Dial(g.Addr(), "survivor", 0, 0)
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		got, err := clientProgram(c, 0, iters)
		if err == nil && got.MaxAbsDiff(want[0]) != 0 {
			err = errors.New("survivor diverged from its solo run")
		}
		done <- err
	}()
	for i := 0; i < 6; i++ {
		if err := victim.Launch("relu", 0, 0, core.ArrRef(va), core.ScalarRef(gwElems)); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the raw connection without the polite close handshake.
	if err := victim.conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := g.Snapshot(); st.Active == 0 {
			if st.Total != 2 {
				t.Fatalf("sessions total = %d, want 2", st.Total)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim session never torn down")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A tenant over its array-byte quota gets ErrQuotaExceeded through the
// wire; the fleet and its neighbors are undisturbed.
func TestGatewayQuota(t *testing.T) {
	const iters = 10
	want := soloBaselines(t, 1, iters)
	quota := memmodel.Bytes(3*gwElems) * memmodel.Float32.Size()
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits: core.SessionLimits{MaxArrayBytes: quota},
	})

	greedy := gwDial(t, g, "greedy")
	if _, err := greedy.NewArray(memmodel.Float32, gwElems); err != nil {
		t.Fatal(err)
	}
	if _, err := greedy.NewArray(memmodel.Float64, 2*gwElems); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("over-quota alloc: got %v, want ErrQuotaExceeded", err)
	}
	// The quota-tripped session keeps working under its budget — the
	// error is not sticky — and a neighbor runs bit-identically. The
	// neighbor's own two arrays fit the quota exactly.
	if _, err := greedy.NewArray(memmodel.Float32, gwElems); err != nil {
		t.Fatalf("in-quota alloc after quota error: %v", err)
	}
	got, err := clientProgram(gwDial(t, g, "neighbor"), 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsDiff(want[0]) != 0 {
		t.Fatal("neighbor diverged beside a quota-tripped tenant")
	}
}

// Malformed allocation requests off the wire — an unknown element kind,
// an int64-overflowing length, a negative length — must come back as
// error responses; one bad frame must never crash the shared gateway.
func TestGatewayRejectsMalformedNewArray(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	evil := gwDial(t, g, "evil")
	if _, err := evil.NewArray(memmodel.ElemKind(200), 8); err == nil {
		t.Fatal("alloc with an unknown element kind succeeded")
	}
	if _, err := evil.NewArray(memmodel.Float64, 1<<61); err == nil {
		t.Fatal("alloc with an int64-overflowing length succeeded")
	}
	if _, err := evil.NewArray(memmodel.Float64, -4); err == nil {
		t.Fatal("alloc with a negative length succeeded")
	}
	// The rejections are not sticky, and the gateway still serves both
	// this session and fresh ones.
	if _, err := evil.NewArray(memmodel.Float32, 16); err != nil {
		t.Fatalf("valid alloc after rejections: %v", err)
	}
	if err := gwDial(t, g, "bystander").Ping(); err != nil {
		t.Fatalf("gateway unhealthy after malformed frames: %v", err)
	}
}

// Elapsed has no error return, so a failed sync there reports 0 — but
// the swallowed error must surface on the next Sync instead of the run
// being silently recorded as a zero makespan.
func TestGatewayElapsedDefersError(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	c := gwDial(t, g, "timed")
	a, err := c.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Launch("no-such-kernel", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
		t.Fatalf("launch enqueue: %v", err)
	}
	if d := c.Elapsed(); d != 0 {
		t.Fatalf("Elapsed over a poisoned session = %v, want 0", d)
	}
	if err := c.Sync(); err == nil {
		t.Fatal("Sync after a failed Elapsed reported no error")
	}
}

// A launch that fails on submission poisons only its own session, like
// a CUDA stream error: reported on the next sync point, sticky after,
// invisible to neighbors.
func TestGatewayStickyLaunchError(t *testing.T) {
	const iters = 10
	want := soloBaselines(t, 1, iters)
	g := gwStart(t, gwSystem(t, nil), Options{})

	bad := gwDial(t, g, "bad")
	a, err := bad.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue is acknowledged; the failure surfaces at the sync point.
	if err := bad.Launch("no-such-kernel", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
		t.Fatalf("launch enqueue: %v", err)
	}
	if err := bad.Sync(); err == nil {
		t.Fatal("sync after a bad launch reported no error")
	}
	if _, err := bad.NewArray(memmodel.Float32, 8); err == nil {
		t.Fatal("session not poisoned after launch failure")
	}
	got, err := clientProgram(gwDial(t, g, "clean"), 0, iters)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsDiff(want[0]) != 0 {
		t.Fatal("clean tenant diverged beside a poisoned one")
	}
}

// A real workload from the paper suite runs through the gateway
// unmodified (the Session interface is the whole point) while another
// tenant hammers the fleet.
func TestGatewayRunsSuiteWorkloads(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"bs", "mv"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			c, err := Dial(g.Addr(), name, 0, 0)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			w := workloads.Suite()[name]
			if err := w.Build(c, workloads.Params{Footprint: 4 * memmodel.MiB, Blocks: 2}); err != nil {
				errs <- fmt.Errorf("%s: %w", name, err)
				return
			}
			errs <- c.Sync()
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The metrics surface reflects the session lifecycle and per-tenant
// counters.
func TestGatewayMetrics(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	c := gwDial(t, g, "metered")
	if _, err := clientProgram(c, 0, 8); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	_, body := get("/metrics")
	for _, line := range []string{
		"grout_gateway_sessions_active 1",
		"grout_gateway_sessions_total 1",
		"grout_gateway_failovers_total 0",
		`grout_shard_dag_live_ces{shard="0"} `,
		`grout_gateway_ces_admitted_total{tenant="metered",shard="0"}`,
		`grout_gateway_ces_completed_total{tenant="metered",shard="0"}`,
		`grout_gateway_array_bytes{tenant="metered",shard="0"} 768`,
		`grout_gateway_admission_wait_seconds_total{tenant="metered",shard="0"}`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("metrics missing %q in:\n%s", line, body)
		}
	}
	st := g.Snapshot()
	if len(st.Tenants) != 1 || st.Tenants[0].Admitted == 0 ||
		st.Tenants[0].Admitted != st.Tenants[0].Completed {
		t.Fatalf("tenant counters off: %+v", st.Tenants)
	}

	// Teardown drops the session from the scrape.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, body := get("/metrics"); strings.Contains(body, "grout_gateway_sessions_active 0") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("metrics never showed the session closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tenantSession digs a tenant's controller session out of the gateway.
func tenantSession(t *testing.T, g *Gateway, name string) *core.ControllerSession {
	t.Helper()
	return gwTenant(t, g, name).sess
}

const gwProdSrc = `__global__ void gwmul(float *s, const float *x, float a, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { s[i] = a * x[i]; }
}`

const gwConsSrc = `__global__ void gwmadd(float *o, const float *u, const float *v, float b, int n) {
	int i = blockIdx.x * blockDim.x + threadIdx.x;
	if (i < n) { o[i] = u[i] + v[i] * b; }
}`

// Two tenants' interleaved elementwise chains compute what they should,
// and their per-tenant counters reach the metrics surface under the right
// labels.
func TestGatewayTenantChainMetrics(t *testing.T) {
	// One worker makes every placement (and so the counter values)
	// deterministic.
	g := gwStart(t, gwSystemN(t, 1, nil), Options{})
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()

	gwDial(t, g, "opt-a")
	gwDial(t, g, "opt-b")
	sa := tenantSession(t, g, "opt-a")
	sb := tenantSession(t, g, "opt-b")

	type tenantArrays struct{ x, s, o dag.ArrayID }
	setup := func(s *core.ControllerSession, bias float64) tenantArrays {
		t.Helper()
		var ta tenantArrays
		var err error
		if ta.x, err = s.NewArray(memmodel.Float32, gwElems); err != nil {
			t.Fatal(err)
		}
		if ta.s, err = s.NewArray(memmodel.Float32, gwElems); err != nil {
			t.Fatal(err)
		}
		if ta.o, err = s.NewArray(memmodel.Float32, gwElems); err != nil {
			t.Fatal(err)
		}
		buf := kernels.NewBuffer(memmodel.Float32, gwElems)
		for j := 0; j < gwElems; j++ {
			buf.Set(j, float64(j%13)+bias)
		}
		if _, err := s.HostWrite(ta.x, buf); err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{gwProdSrc, gwConsSrc} {
			if _, err := s.BuildKernel(src, ""); err != nil {
				t.Fatal(err)
			}
		}
		return ta
	}
	aa, ab := setup(sa, 1), setup(sb, 2)

	// Tenants interleaved: a.mul, b.mul, a.madd, b.madd.
	nArg := core.ScalarRef(float64(gwElems))
	submit := func(s *core.ControllerSession, inv core.Invocation) {
		t.Helper()
		if _, err := s.Submit(inv); err != nil {
			t.Fatal(err)
		}
	}
	mul := func(ta tenantArrays) core.Invocation {
		return core.Invocation{Kernel: "gwmul", Grid: 1, Block: gwElems,
			Args: []core.ArgRef{core.ArrRef(ta.s), core.ArrRef(ta.x), core.ScalarRef(2.5), nArg}}
	}
	madd := func(ta tenantArrays) core.Invocation {
		return core.Invocation{Kernel: "gwmadd", Grid: 1, Block: gwElems,
			Args: []core.ArgRef{core.ArrRef(ta.o), core.ArrRef(ta.s), core.ArrRef(ta.x), core.ScalarRef(0.75), nArg}}
	}
	submit(sa, mul(aa))
	submit(sb, mul(ab))
	submit(sa, madd(aa))
	submit(sb, madd(ab))

	// Each tenant re-reads its own freshly placed output.
	relu := func(ta tenantArrays) core.Invocation {
		return core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(ta.o), nArg}}
	}
	submit(sa, relu(aa))
	submit(sb, relu(ab))
	if err := g.shards[0].ctl.Drain(); err != nil {
		t.Fatal(err)
	}

	// The arithmetic survived: o = relu(2.5*x + 0.75*x), x > 0.
	got, _, err := sa.HostRead(aa.o)
	if err != nil {
		t.Fatal(err)
	}
	xa, _, err := sa.HostRead(aa.x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < gwElems; j++ {
		want := 3.25 * xa.At(j)
		f32 := kernels.NewBuffer(memmodel.Float32, 1)
		f32.Set(0, want)
		if got.At(j) != f32.At(0) {
			t.Fatalf("o[%d] = %v, want %v", j, got.At(j), f32.At(0))
		}
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`grout_gateway_ces_completed_total{tenant="opt-a",shard="0"} 3`,
		`grout_gateway_ces_completed_total{tenant="opt-b",shard="0"} 3`,
	} {
		if !strings.Contains(string(body), line) {
			t.Fatalf("metrics missing %q in:\n%s", line, body)
		}
	}
}

// Session-local IDs must be translated, never trusted: two tenants use
// identical local IDs with different data.
func TestGatewayNamespaceTranslation(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	c1 := gwDial(t, g, "one")
	c2 := gwDial(t, g, "two")
	a1, err := c1.NewArray(memmodel.Float32, 16)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c2.NewArray(memmodel.Float32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("expected identical session-local IDs, got %d and %d", a1, a2)
	}
	c1.Buffer(a1).Fill(5)
	c2.Buffer(a2).Fill(-5)
	if err := c1.HostWrite(a1); err != nil {
		t.Fatal(err)
	}
	if err := c2.HostWrite(a2); err != nil {
		t.Fatal(err)
	}
	if err := c2.Launch("relu", 0, 0, core.ArrRef(a2), core.ScalarRef(16)); err != nil {
		t.Fatal(err)
	}
	if err := c1.HostRead(a1); err != nil {
		t.Fatal(err)
	}
	if err := c2.HostRead(a2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if c1.Buffer(a1).At(i) != 5 {
			t.Fatalf("tenant one's data clobbered at %d: %g", i, c1.Buffer(a1).At(i))
		}
		if c2.Buffer(a2).At(i) != 0 {
			t.Fatalf("tenant two's relu missing at %d: %g", i, c2.Buffer(a2).At(i))
		}
	}
	// Reaching into an ID the session never allocated fails loudly.
	if err := c1.Launch("relu", 0, 0, core.ArrRef(dag.ArrayID(99)), core.ScalarRef(16)); err != nil {
		t.Fatalf("launch enqueue: %v", err)
	}
	if err := c1.Sync(); err == nil {
		t.Fatal("launch against an unknown array survived the sync point")
	}
}
