package transport

// Recovery and deadline tests over real sockets (ISSUE 4): lineage
// recovery must survive a worker process dying with the only copy of an
// intermediate array, and a worker that accepts TCP but never answers
// must cost a bounded deadline instead of hanging the controller.

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// TestTCPLineageRecovery kills the worker process holding the sole copy
// of a relu-chain intermediate, then asserts the next consumer triggers a
// lineage replay on the survivor and the results match the fault-free
// values exactly.
func TestTCPLineageRecovery(t *testing.T) {
	var workers []*WorkerServer
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true})

	const n = int64(64)
	nArg := core.ScalarRef(float64(n))
	x, _ := ctl.NewArray(memmodel.Float32, n)
	y, _ := ctl.NewArray(memmodel.Float32, n)
	launch := func(kernel string, args ...core.ArgRef) {
		t.Helper()
		if _, err := ctl.Launch(core.Invocation{Kernel: kernel, Args: args}); err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
	}
	// Round-robin: fill x → w1, relu ×3 hop w2,w1,w2 — after the chain
	// the ONLY copy of x's committed version lives on worker 2.
	launch("fill", core.ArrRef(x.ID), core.ScalarRef(5), nArg)
	launch("relu", core.ArrRef(x.ID), nArg)
	launch("relu", core.ArrRef(x.ID), nArg)
	launch("relu", core.ArrRef(x.ID), nArg)
	launch("fill", core.ArrRef(y.ID), core.ScalarRef(3), nArg)
	if err := workers[1].Close(); err != nil {
		t.Fatal(err)
	}
	// The consumer of x reroutes to worker 1, discovers the loss, and the
	// Controller replays fill→relu×3 there from lineage.
	launch("axpy", core.ArrRef(y.ID), core.ArrRef(x.ID), core.ScalarRef(2), nArg)

	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(y.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if got := x.Buf.At(i); got != 5 {
			t.Fatalf("x[%d] = %v, want 5", i, got)
		}
		if got := y.Buf.At(i); got != 13 {
			t.Fatalf("y[%d] = %v, want 13 (2*5+3)", i, got)
		}
	}
	if ctl.Failovers() < 1 {
		t.Fatalf("failovers = %d, want >= 1", ctl.Failovers())
	}
	if ctl.Recoveries() < 1 {
		t.Fatalf("recoveries = %d, want >= 1", ctl.Recoveries())
	}
}

// hungListener accepts connections and consumes every byte without ever
// replying: the TCP behavior of a wedged worker process.
func hungListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				_, _ = io.Copy(io.Discard, c)
				_ = c.Close()
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestHungWorkerCallTimeout: a call to a worker that accepts and swallows
// bytes but never answers is bounded. Before deadlines, this dial's
// verification ping blocked forever.
func TestHungWorkerCallTimeout(t *testing.T) {
	addr := hungListener(t)
	start := time.Now()
	fab, err := DialWith([]string{addr}, DialOptions{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		_ = fab.Close()
		t.Fatal("dial to hung worker succeeded")
	}
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("hung worker error = %v, want core.ErrTimeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hung worker cost %v, want bounded by deadline", elapsed)
	}
}

// TestDialTimeoutRefusedIsTransient: a refused dial comes back quickly and
// classified transient, so the controller's retry/backoff applies.
func TestDialTimeoutRefusedIsTransient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close() // nothing listens here anymore
	_, err = DialWith([]string{addr}, DialOptions{DialTimeout: time.Second})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
	if !core.IsTransient(err) {
		t.Fatalf("refused dial error = %v, want transient", err)
	}
}

// TestRedialOncePerAttemptFailover: with redial on and three in-place
// retries, a worker whose port accepts and hangs up is dialed at most once
// per dispatch attempt — the controller's loop is the only retry loop, and
// the fabric never retries or sleeps itself — before the CE fails over to
// the survivor.
func TestRedialOncePerAttemptFailover(t *testing.T) {
	workers, addrs := startWorkers(t, 2)
	fab, err := DialWith(addrs, DialOptions{Redial: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true,
		Retry: core.RetryPolicy{Attempts: 3, Backoff: time.Millisecond}})
	t.Cleanup(func() { _ = ctl.Close() })

	const n = int64(128)
	x, _ := ctl.NewArray(memmodel.Float32, n)
	for i := 0; i < int(n); i++ {
		x.Buf.Set(i, float64(i))
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	relu := core.Invocation{Kernel: "relu", Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(float64(n))}}
	if _, err := ctl.Launch(relu); err != nil { // round-robin: worker 1
		t.Fatal(err)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}

	// Worker 1's process goes away and something else takes its port: it
	// accepts every connection and closes it at once.
	addr := workers[0].Addr()
	if err := workers[0].Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			_ = c.Close()
		}
	}()

	for i := 0; i < 2; i++ { // worker 2, then worker 1's turn
		if _, err := ctl.Launch(relu); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	if got := accepted.Load(); got > 5 {
		t.Fatalf("%d connections to the hung-up port, want at most 5 (one dial per attempt)", got)
	}
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		if x.Buf.At(i) != float64(i) { // relu of non-negative input
			t.Fatalf("x[%d] = %v, want %v", i, x.Buf.At(i), float64(i))
		}
	}
}
