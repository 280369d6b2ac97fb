package server

// Production-traffic gateway tests: per-tenant token-bucket rate
// limiting, backpressure advisories and the client's adaptive pacing,
// class-based load shedding, teardown racing the drain loop under an
// enqueue storm, hostile-tenant containment and dial churn. Everything
// runs under -race in ci.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/memmodel"
)

// trafficArray allocates and host-writes one array so launches on it
// are valid; writes happen before any launch storm, because sync ops
// flush the queue first.
func trafficArray(t *testing.T, c *Client) dag.ArrayID {
	t.Helper()
	a, err := c.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		t.Fatal(err)
	}
	c.Buffer(a).Fill(1)
	if err := c.HostWrite(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// A rate-limited tenant's admission is bounded by its token bucket:
// launches burst up to Burst, then the drain loop meters the rest at
// RatePerSec, so the whole program cannot finish faster than the
// tokens allow.
func TestGatewayRateLimitBoundsAdmission(t *testing.T) {
	const rate, burst, launches = 100.0, 2, 22
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits: core.SessionLimits{RatePerSec: rate, Burst: burst},
	})
	c := gwDial(t, g, "metered")
	a := trafficArray(t, c)
	start := time.Now()
	for i := 0; i < launches; i++ {
		if err := c.Launch("relu", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 22 launches on a burst of 2 need >= 20 refills at 100/s = 200ms.
	// Allow generous slack below the theoretical floor for clock grain.
	if min := 150 * time.Millisecond; elapsed < min {
		t.Fatalf("rate-limited program finished in %v; the bucket allows no less than ~200ms", elapsed)
	}
	if st := g.Snapshot(); st.Tenants[0].Admitted != launches {
		t.Fatalf("admitted %d, want %d (rate limiting must delay, never drop)", st.Tenants[0].Admitted, launches)
	}
}

// Backpressure advisories reach the client and pace it; a client that
// opts out keeps launching full tilt and reports no pace.
func TestGatewayBackpressurePacesClient(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits: core.SessionLimits{RatePerSec: 50, Burst: 1},
	})
	c := gwDial(t, g, "polite")
	a := trafficArray(t, c)
	for i := 0; i < 6; i++ {
		if err := c.Launch("relu", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
			t.Fatal(err)
		}
	}
	// With one token and a 50/s refill, the backlog outruns the bucket
	// and the launch acks must have carried pause advisories — once the
	// acks are in, which any synchronizing call guarantees.
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if c.Pace() == 0 {
		t.Fatal("client pace is 0 after out-running its token bucket")
	}
	bp, err := c.Backpressure()
	if err != nil {
		t.Fatal(err)
	}
	if bp == nil {
		t.Fatal("backpressure poll returned no frame")
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	hostile := gwDial(t, g, "hostile")
	hostile.SetHonorBackpressure(false)
	ha := trafficArray(t, hostile)
	for i := 0; i < 6; i++ {
		if err := hostile.Launch("relu", 0, 0, core.ArrRef(ha), core.ScalarRef(gwElems)); err != nil {
			t.Fatal(err)
		}
	}
	if err := hostile.Ping(); err != nil {
		t.Fatal(err)
	}
	if hostile.Pace() != 0 {
		t.Fatalf("opted-out client paced itself to %v", hostile.Pace())
	}
	if err := hostile.Sync(); err != nil {
		t.Fatal(err)
	}
}

// Shedding refuses lowest classes first when the shard backlog
// saturates; a pipelined client has launches in flight past the shed one,
// so the gateway refuses those too and what ran is a prefix of what was
// issued; the refusal is errors.Is-able as core.ErrShedded through the
// wire and says how long the prefix is; it is retryable (never sticky);
// and the per-class shed series reach /metrics.
func TestGatewayShedsByClass(t *testing.T) {
	// Each tenant's first launch sticks in the gate and holds its one
	// in-flight slot, so the backlog builds deterministically.
	ctl, open := gatedSystem(t)
	defer open()
	g := gwStart(t, ctl, Options{
		ShedDepth: 2,
		Limits:    wedgeLimits, // class 0
		LimitsFor: func(tenant string) (core.SessionLimits, bool) {
			if strings.HasPrefix(tenant, "vip") {
				lim := wedgeLimits
				lim.Class = 1
				return lim, true
			}
			return core.SessionLimits{}, false
		},
	})
	// All controller-touching setup happens BEFORE the launch storm: once a
	// launch is stuck in the gate every synchronizing call waits for it, so
	// only enqueue-side paths stay responsive.
	low := gwDial(t, g, "steerage")
	la := trafficArray(t, low) // all ones
	acc, err := low.NewArray(memmodel.Float32, gwElems)
	if err != nil {
		t.Fatal(err)
	}
	if err := low.HostWrite(acc); err != nil {
		t.Fatal(err)
	}
	vip := gwDial(t, g, "vip")
	va := trafficArray(t, vip)

	// Launch i adds 2^i to acc, so acc spells out which launches ran. The
	// class-0 threshold is ShedDepth*(0+1)=2: launch 0 is admitted and
	// sticks in the gate, launches 1 and 2 queue behind the in-flight cap,
	// launch 3 is shed, and so is everything the client has in flight
	// behind it.
	const storm = 10
	var shedErr error
	issued := 0
	for ; issued < storm && shedErr == nil; issued++ {
		shedErr = low.Launch("axpy", 0, 0, core.ArrRef(acc), core.ArrRef(la),
			core.ScalarRef(float64(int(1)<<issued)), core.ScalarRef(gwElems))
	}
	acked := func(c *Client) func() bool {
		return func() bool { unacked, _ := c.inFlight(); return unacked == 0 }
	}
	eventually(t, 5*time.Second, "the gateway answers the whole storm", acked(low))
	// Class 1 tolerates twice the backlog (threshold 4 > the 2 that shed
	// class 0): its launch is admitted, as its Sync below confirms.
	if err := vip.Launch("relu", 0, 0, core.ArrRef(va), core.ScalarRef(gwElems)); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, "the gateway answers the class-1 launch", acked(vip))

	// Only now open the gate — a launch returning says nothing about
	// the gateway having seen it. The shed counters are cumulative, so
	// the accounting checks below still see the storm. One synchronizing
	// call reports whatever refusals no Launch got to report, and ends
	// the shedding.
	open()
	if err := low.Sync(); shedErr == nil {
		shedErr = err
	} else if err != nil && !errors.Is(err, core.ErrShedded) {
		t.Fatalf("sync after shed: %v (shed must not poison the session)", err)
	}
	var shed *ShedError
	if !errors.Is(shedErr, core.ErrShedded) || !errors.As(shedErr, &shed) {
		t.Fatalf("class-0 launch storm got %v, want a ShedError wrapping ErrShedded", shedErr)
	}
	if shed.Accepted != 3 {
		t.Fatalf("shed error counts %d accepted launches, want 3: %v", shed.Accepted, shedErr)
	}
	if err := low.HostRead(acc); err != nil {
		t.Fatalf("read after shed: %v (one synchronizing call must clear the shedding)", err)
	}
	if got, want := low.Buffer(acc).At(0), float64(int(1)<<shed.Accepted-1); got != want {
		t.Fatalf("acc = %v after %d launches with %d accepted, want %v: what ran is not the accepted prefix",
			got, issued, shed.Accepted, want)
	}
	if err := vip.Sync(); err != nil {
		t.Fatalf("class-1 launch refused while only class 0 should shed: %v", err)
	}

	// Per-class accounting: class 0 shed, class 1 clean.
	st := g.Snapshot()
	if len(st.Classes) != 2 || st.Classes[0].Shed == 0 || st.Classes[1].Shed != 0 {
		t.Fatalf("class stats off: %+v", st.Classes)
	}
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
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
		`grout_class_shed_total{class="0"} `,
		`grout_class_shed_total{class="1"} 0`,
		`grout_gateway_launches_shed_total{tenant="steerage",shard="0"} `,
	} {
		if !strings.Contains(string(body), line) {
			t.Fatalf("metrics missing %q in:\n%s", line, body)
		}
	}

	// Retryable, not sticky: with the backlog drained, the shed tenant's
	// next launch goes through.
	if err := low.Launch("relu", 0, 0, core.ArrRef(la), core.ScalarRef(gwElems)); err != nil {
		t.Fatalf("launch after backlog cleared: %v", err)
	}
	if err := low.Sync(); err != nil {
		t.Fatal(err)
	}
}

// The -race gate for the tentpole's moving parts: tenants storm a tiny
// rate-limited queue while their connections are torn down abruptly,
// racing the drain loop's submissions and the backpressure advisories.
// The gateway must stay serviceable for a fresh tenant afterwards.
func TestGatewayTeardownRacesDrain(t *testing.T) {
	const stormers, launches = 4, 40
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits:     core.SessionLimits{RatePerSec: 500, Burst: 1},
		queueDepth: 2,
	})
	var wg sync.WaitGroup
	for k := 0; k < stormers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c, err := Dial(g.Addr(), fmt.Sprintf("storm-%d", k), 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if k%2 == 0 {
				c.SetHonorBackpressure(false)
			}
			a, err := c.NewArray(memmodel.Float32, gwElems)
			if err != nil {
				t.Error(err)
				return
			}
			c.Buffer(a).Fill(1)
			if err := c.HostWrite(a); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < launches; i++ {
				// Errors are expected once teardown wins the race.
				if err := c.Launch("relu", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
					break
				}
				if i == launches/2 {
					// Drop the raw connection mid-storm, no goodbye.
					_ = c.conn.Close()
				}
			}
			_ = c.conn.Close()
		}(k)
	}
	wg.Wait()

	// Every storm session is eventually torn down and the gateway still
	// serves a full program.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := g.Snapshot(); st.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("storm sessions never torn down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c := gwDial(t, g, "after-the-storm")
	if _, err := clientProgram(c, 0, 8); err != nil {
		t.Fatalf("gateway unserviceable after the storm: %v", err)
	}
}

// Hostile-tenant containment: 64 rate-limited tenants make 20 launches
// each, with and without a tenant 0 that ignores every backpressure
// advisory. The worst well-behaved tenant's p99 admission wait with the
// hostile neighbor present must stay within 2× of the all-polite run.
// Wall-clock waits on a shared box are noisy, so the rule holds for the
// median ratio of alternating pairs.
func TestGatewayContainsHostileTenant(t *testing.T) {
	const tenants, launches, pairs = 64, 20, 5
	limits := core.SessionLimits{MaxInflightCEs: 32, RatePerSec: 400, Burst: 16}
	worstPoliteP99 := func(hostile bool) time.Duration {
		g, err := New(gwSystem(t, nil), "127.0.0.1:0", Options{Limits: limits})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		clients := make([]*Client, tenants)
		arrays := make([]dag.ArrayID, tenants)
		for k := range clients {
			c, err := Dial(g.Addr(), fmt.Sprintf("t%02d", k), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetHonorBackpressure(!(hostile && k == 0))
			clients[k], arrays[k] = c, trafficArray(t, c)
		}
		var wg sync.WaitGroup
		errs := make(chan error, tenants)
		for k, c := range clients {
			wg.Add(1)
			go func(c *Client, a dag.ArrayID) {
				defer wg.Done()
				for i := 0; i < launches; i++ {
					if err := c.Launch("relu", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
						errs <- err
						return
					}
				}
				errs <- c.Sync()
			}(c, arrays[k])
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		var worst time.Duration
		for _, ts := range g.Snapshot().Tenants {
			if hostile && ts.Name == "t00" {
				continue // the hostile tenant's own wait is not the claim
			}
			worst = max(worst, ts.AdmissionWaitP99)
		}
		return worst
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		polite := worstPoliteP99(false)
		hostile := worstPoliteP99(true)
		if polite <= 0 {
			t.Fatalf("pair %d: the all-polite run reports no admission wait, so the rate limit never bound", i)
		}
		ratios[i] = float64(hostile) / float64(polite)
		t.Logf("pair %d: worst polite p99 %v all-polite, %v beside the hostile tenant", i, polite, hostile)
	}
	sort.Float64s(ratios)
	if median := ratios[pairs/2]; median > 2 {
		t.Fatalf("worst well-behaved p99 admission wait with a hostile neighbor is %.2f× the all-polite run (median of %v), want ≤ 2×",
			median, ratios)
	}
}

// Dial churn: repeated 32-way bursts of dial+ping+close all succeed, and
// afterwards the gateway holds no session and no goroutine more than
// before the first burst.
func TestGatewayDialChurn(t *testing.T) {
	const bursts, burst = 4, 32
	g := gwStart(t, gwSystem(t, nil), Options{})
	baseline := runtime.NumGoroutine()
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		errs := make(chan error, burst)
		for k := 0; k < burst; k++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				c, err := Dial(g.Addr(), name, 0, 0)
				if err != nil {
					errs <- err
					return
				}
				err = c.Ping()
				if cerr := c.Close(); err == nil {
					err = cerr
				}
				errs <- err
			}(fmt.Sprintf("churn-%d-%02d", b, k))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("burst %d: %v", b, err)
			}
		}
	}
	eventually(t, 5*time.Second, "sessions and goroutines back to baseline", func() bool {
		return g.Snapshot().Active == 0 && runtime.NumGoroutine() <= baseline
	})
	if total := g.Snapshot().Total; total != bursts*burst {
		t.Fatalf("gateway counted %d sessions, want %d", total, bursts*burst)
	}
}
