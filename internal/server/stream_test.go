package server

// Tests of the pipelined session channel: a client streams launches
// without waiting for their acks, so results must not depend on it, no
// frame may be stranded in a write buffer, the launch window must hold,
// and errors, severed connections and deadlines must reach the caller
// (what a burst costs in writes is package transport's
// TestSessionChannelCoalescesWrites). Everything runs under -race in ci.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/transport"
	"grout/internal/workloads"
)

// gatedSystem builds a non-pipelined numeric controller whose every
// fabric Launch waits for open(): the drain's Submit wedges inside the
// fabric, so a tenant's backlog builds deterministically — one launch
// popped and stuck, the rest in its queue. Set up arrays before the
// first launch; the wedged Submit holds the controller. Callers defer
// open(): the gateway's Close (a Cleanup) waits for the wedged drain.
func gatedSystem(t *testing.T) (ctl *core.Controller, open func()) {
	t.Helper()
	gate := make(chan struct{})
	var fab core.Fabric = &gatedFabric{
		Fabric: core.NewLocalFabric(cluster.New(cluster.PaperSpec(2)), kernels.StdRegistry(), true),
		gate:   gate,
	}
	ctl = core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() { ctl.Close() })
	return ctl, open
}

// gwTenant digs a tenant out of the gateway.
func gwTenant(t *testing.T, g *Gateway, name string) *tenant {
	t.Helper()
	for _, sh := range g.shards {
		sh.mu.Lock()
		for _, tn := range sh.sessions {
			if tn.name == name {
				sh.mu.Unlock()
				return tn
			}
		}
		sh.mu.Unlock()
	}
	t.Fatalf("no tenant %q", name)
	return nil
}

// eventually polls cond until it holds.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}

func (c *Client) inFlight() (unacked, unsent int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.unacked, c.unsent
}

func relu(c *Client, a dag.ArrayID) error {
	return c.Launch("relu", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems))
}

// syncEvery turns a pipelined session into a blocking one: every launch
// is followed by a Sync.
type syncEvery struct{ *Client }

func (s syncEvery) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	if err := s.Client.Launch(kernel, grid, block, args...); err != nil {
		return err
	}
	return s.Client.Sync()
}

// (a) Streaming launches changes when frames travel, never what runs: the
// programs TestGatewayTenantsBitIdentical runs give the same bits
// pipelined as with a Sync after every launch.
func TestSessionStreamMatchesSynced(t *testing.T) {
	const tenants, iters = 4, 18
	g := gwStart(t, gwSystem(t, nil), Options{})
	for k := 0; k < tenants; k++ {
		var got [2]*kernels.Buffer
		for i, wrap := range []func(*Client) workloads.Session{
			func(c *Client) workloads.Session { return c },
			func(c *Client) workloads.Session { return syncEvery{c} },
		} {
			buf, err := clientProgram(wrap(gwDial(t, g, fmt.Sprintf("t%d-%d", k, i))), k, iters)
			if err != nil {
				t.Fatalf("tenant %d run %d: %v", k, i, err)
			}
			got[i] = buf
		}
		if d := got[0].MaxAbsDiff(got[1]); d != 0 {
			t.Fatalf("tenant %d: pipelined run differs from the synced run by %g", k, d)
		}
	}
}

// (b) A client that launches and then goes quiet still gets every launch
// to the gateway: the second and third frames wait in the write buffer
// for the first one's ack, and only the reader goroutine is left to send
// them. The pause before them sweeps across the ack's arrival time, so
// over the rounds the ack lands at every point of the later launches —
// a frame counted unsent before it is in the buffer, which the reader's
// flush then misses for good, shows up as a round that never completes.
func TestSessionStreamQuietClient(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	c := gwDial(t, g, "quiet")
	a := trafficArray(t, c)
	sh := gwTenant(t, g, "quiet").shard
	submitted := func() int64 { // launches the drain has handed to the controller
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.ces
	}
	var rtt time.Duration // a launch is acked at its enqueue, so its ack takes about a ping
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < rtt {
			rtt = d
		}
	}
	const rounds, steps = 4000, 50
	for round := 1; round <= rounds; round++ {
		if err := relu(c, a); err != nil {
			t.Fatal(err)
		}
		pause := rtt * time.Duration(15+round%steps*2) / steps // 0.3 .. 2.3 rtt
		for spin := time.Now(); time.Since(spin) < pause; {
		}
		for i := 0; i < 2; i++ {
			if err := relu(c, a); err != nil {
				t.Fatal(err)
			}
		}
		for start := time.Now(); submitted() != int64(3*round); time.Sleep(20 * time.Microsecond) {
			if time.Since(start) > 5*time.Second {
				unacked, unsent := c.inFlight()
				t.Fatalf("round %d: a quiet client's three launches never reached the controller (%d unacknowledged, %d counted unsent)",
					round, unacked, unsent)
			}
		}
	}
	eventually(t, 5*time.Second, "every launch completes", func() bool {
		return tenantSession(t, g, "quiet").Stats().Completed == 3*rounds
	})
}

// (c) The launch window: with the gateway's drain wedged, the gateway
// acks one launch per queue slot plus the one its drain popped, then
// blocks on the next; the client may run QueueDepth launches past the
// last ack and blocks in Launch on the one after — and everything
// resumes when the drain does.
func TestSessionStreamWindow(t *testing.T) {
	for _, depth := range []int{1, 2, 64} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			ctl, open := gatedSystem(t)
			defer open()
			g := gwStart(t, ctl, Options{QueueDepth: depth})
			c := gwDial(t, g, "windowed")
			a := trafficArray(t, c)
			acked, free := depth+1, depth // what the gateway takes, what the window adds
			total := acked + free + 3
			var returned atomic.Int64
			done := make(chan error, 1)
			go func() {
				for i := 0; i < total; i++ {
					if err := relu(c, a); err != nil {
						done <- err
						return
					}
					returned.Add(1)
				}
				done <- nil
			}()
			eventually(t, 10*time.Second, "client fills its window", func() bool {
				return returned.Load() == int64(acked+free)
			})
			time.Sleep(50 * time.Millisecond) // a launch past the window would return now
			if n := returned.Load(); n != int64(acked+free) {
				t.Fatalf("%d launches returned with the drain wedged, want %d acked + %d window", n, acked, free)
			}
			if unacked, _ := c.inFlight(); unacked != depth {
				t.Fatalf("client blocked with %d launches unacknowledged, want %d", unacked, depth)
			}
			open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if err := c.Sync(); err != nil {
				t.Fatal(err)
			}
			if st := tenantSession(t, g, "windowed").Stats(); st.Completed != int64(total) {
				t.Fatalf("completed %d of %d launches", st.Completed, total)
			}
		})
	}
}

// (b) again, past the write buffer: with a queue depth this large the
// launches waiting for an ack (~150 B apiece, up to the capped window)
// outgrow the connection's 16 KiB write buffer, which then empties itself
// on the way. If it ever did that in the middle of a frame, the gateway
// would sit on its acks waiting for the rest of the frame while the client
// sat on the rest waiting for those acks — and a client that has nothing
// more to say would never get out of it.
func TestSessionStreamQuietClientDeepQueue(t *testing.T) {
	const rounds, burst = 12, 400
	g := gwStart(t, gwSystem(t, nil), Options{QueueDepth: 1024})
	c := gwDial(t, g, "deep")
	if c.window != maxWindow {
		t.Fatalf("window %d for a queue depth of 1024, want it capped at %d", c.window, maxWindow)
	}
	x, y := trafficArray(t, c), trafficArray(t, c)
	sess := tenantSession(t, g, "deep")
	for round := 1; round <= rounds; round++ {
		for i := 0; i < burst; i++ {
			if err := c.Launch("axpy", 0, 0, core.ArrRef(y), core.ArrRef(x), core.ScalarRef(0.5), core.ScalarRef(gwElems)); err != nil {
				t.Fatal(err)
			}
		}
		for start := time.Now(); sess.Stats().Completed != int64(round*burst); time.Sleep(100 * time.Microsecond) {
			if time.Since(start) > 5*time.Second {
				unacked, unsent := c.inFlight()
				t.Fatalf("round %d: completed %d of %d launches with the client quiet (%d unacknowledged, %d counted unsent)",
					round, sess.Stats().Completed, round*burst, unacked, unsent)
			}
		}
	}
}

// (e) A launch that fails after its enqueue poisons the session; the
// pipelined client reports it on the next call that sees it and on
// every one after — a Launch by itself or through the synchronizing
// call behind it.
func TestSessionStreamDeferredErrors(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{})
	c := gwDial(t, g, "poisoned")
	a := trafficArray(t, c)
	if err := c.Launch("no-such-kernel", 0, 0, core.ArrRef(a), core.ScalarRef(gwElems)); err != nil {
		t.Fatalf("launch enqueue: %v", err)
	}
	var first error
	for i := 0; i < 4 && first == nil; i++ {
		first = relu(c, a)
	}
	if first == nil {
		first = c.Sync()
	}
	if first == nil {
		t.Fatal("neither a later launch nor the sync reported the failed launch")
	}
	for i := 0; i < 3; i++ {
		if err := c.Sync(); err == nil {
			t.Fatalf("sync %d on the poisoned session reported no error", i)
		}
		if _, err := c.NewArray(memmodel.Float32, 8); err == nil {
			t.Fatalf("alloc %d on the poisoned session succeeded", i)
		}
		// A launch is only accepted for sending; its refusal arrives
		// with the ack and the next call reports it.
		err := relu(c, a)
		if err == nil {
			err = c.Ping()
		}
		if err == nil {
			t.Fatalf("launch %d on the poisoned session was never refused", i)
		}
	}
}

// (g) A connection severed with launches in flight releases every
// waiter, the next call returns a transport error, and after Close no
// goroutine of the client or of its gateway session is left.
func TestSessionStreamSeveredConnection(t *testing.T) {
	const depth = 4
	ctl, open := gatedSystem(t)
	defer open()
	g := gwStart(t, ctl, Options{QueueDepth: depth})
	baseline := runtime.NumGoroutine()
	c := gwDial(t, g, "severed")
	a := trafficArray(t, c)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 4*depth; i++ {
			if err := relu(c, a); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	eventually(t, 10*time.Second, "client fills its window", func() bool {
		unacked, unsent := c.inFlight()
		return unacked == depth && unsent == 0
	})
	_ = gwTenant(t, g, "severed").conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrTransient) {
			t.Fatalf("launch blocked on a severed connection returned %v, want a transport error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("launch still blocked in its window after the connection was severed")
	}
	if err := c.Sync(); !errors.Is(err, core.ErrTransient) {
		t.Fatalf("sync on a severed connection: %v, want a transport error", err)
	}
	if unacked, _ := c.inFlight(); unacked != 0 {
		t.Fatalf("%d launches still counted in flight on a dead connection", unacked)
	}
	open() // the session's teardown waits for the launch wedged in the drain
	_ = c.Close()
	eventually(t, 5*time.Second, "goroutines back to baseline", func() bool {
		return runtime.NumGoroutine() <= baseline
	})
}

// (h) CallTimeout bounds the wait for a gateway that accepted launches
// and went silent, and never fires on a session with nothing
// outstanding, however long it idles.
func TestSessionStreamCallTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var silent atomic.Bool
	served := make(chan struct{})
	go func() { // a gateway that answers until told to go silent
		defer close(served)
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn, err := transport.AcceptSession(raw, 0)
		if err != nil {
			_ = raw.Close()
			return
		}
		defer conn.Close()
		var req transport.SessionRequest
		for {
			id, err := conn.ReadRequest(&req)
			if err != nil {
				return
			}
			if silent.Load() {
				continue
			}
			resp := &transport.SessionResponse{BP: &transport.Backpressure{QueueCap: 8}}
			if err := conn.Reply(id, resp); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String(), "patient", 0, timeout)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * timeout)
	if err := c.Ping(); err != nil {
		t.Fatalf("idle session failed: %v", err)
	}
	silent.Store(true)
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := c.Launch("relu", 0, 0, core.ArrRef(1), core.ScalarRef(gwElems)); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if err := c.Sync(); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("sync behind unanswered launches: %v, want core.ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 10*timeout {
		t.Fatalf("timed out after %v, want about %v", elapsed, timeout)
	}
	_ = c.Close()
	<-served
}

// Gateway.Close with a synchronizing request parked behind a queue the
// stopped drain will never empty must still return.
func TestCloseWhileSyncParkedBehindQueue(t *testing.T) {
	g := gwStart(t, gwSystem(t, nil), Options{
		Limits: core.SessionLimits{RatePerSec: 0.2, Burst: 1},
	})
	c := gwDial(t, g, "parked")
	c.SetHonorBackpressure(false)
	a := trafficArray(t, c)
	for i := 0; i < 4; i++ {
		if err := relu(c, a); err != nil {
			t.Fatal(err)
		}
	}
	synced := make(chan error, 1)
	go func() { synced <- c.Sync() }()
	time.Sleep(100 * time.Millisecond)
	closed := make(chan struct{})
	go func() { _ = g.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Gateway.Close hangs behind a sync op parked on a rate-limited queue")
	}
	select {
	case err := <-synced:
		if err == nil {
			t.Fatal("sync parked across the gateway's shutdown reported success")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("sync still parked after the gateway closed")
	}
}
