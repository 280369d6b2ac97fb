package transport

// Data-plane tests: bulk-channel fault injection and failover, control
// latency under bulk load, typed errors across the wire, concurrent
// transfers serialised on one bulk channel, and chunk-stream validation.

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

func testSpec() gpusim.NodeSpec { return gpusim.OCIWorkerSpec("w") }

func deadlineSoon() time.Time { return time.Now().Add(2 * time.Second) }

// failAfterWriter passes budget bytes through, then fails every write:
// a bulk link severed mid-stream. Writes arrive under the framed
// connection's write mutex, so no extra locking is needed.
type failAfterWriter struct {
	w      io.Writer
	budget int
}

var errInjectedSever = errors.New("injected fault: bulk link severed")

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errInjectedSever
	}
	if len(p) > f.budget {
		n, _ := f.w.Write(p[:f.budget])
		f.budget = 0
		return n, errInjectedSever
	}
	f.budget -= len(p)
	return f.w.Write(p)
}

// severBulk injects a failing writer into the worker's bulk channel so the
// next bulk transfer dies partway through a chunk stream.
func severBulk(t *testing.T, fab *TCPFabric, w cluster.NodeID, afterBytes int) {
	t.Helper()
	l, ok := fab.links[w]
	if !ok {
		t.Fatalf("no link for worker %v", w)
	}
	fc := l.bulk.fc
	fc.wmu.Lock()
	fc.w = &failAfterWriter{w: fc.w, budget: afterBytes}
	fc.wmu.Unlock()
}

// Severing the bulk channel mid-chunk must surface as a dead worker: the
// control channel still answers pings, but the fabric reports the worker
// unhealthy and the controller fails over, reshipping the array from its
// own valid replica to the survivor.
func TestBulkSeverMidChunkFailover(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		addrs = append(addrs, w.Addr())
	}
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true})

	const n = int64(1 << 18) // 1 MiB of float32: several chunks at the default size
	x, _ := ctl.NewArray(memmodel.Float32, n)
	for i := 0; i < int(n); i++ {
		x.Buf.Set(i, float64(i%101)-50)
	}
	if _, err := ctl.HostWrite(x.ID); err != nil {
		t.Fatal(err)
	}
	// Let the request frame and the first chunk through, then cut the link
	// inside the second chunk.
	severBulk(t, fab, 1, chunkBytes+4096)
	// The first CE round-robins onto worker 1, whose bulk channel dies
	// mid-transfer; failover must reship from the controller's replica and
	// run on worker 2.
	if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
		Args: []core.ArgRef{core.ArrRef(x.ID), core.ScalarRef(float64(n))}}); err != nil {
		t.Fatalf("launch after bulk sever: %v", err)
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	if dead := ctl.DeadWorkers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("dead workers = %v, want [1]", dead)
	}
	if fab.Healthy(1) {
		t.Fatalf("worker with severed bulk channel reported healthy")
	}
	// Numerics survived the reshipment.
	if _, err := ctl.HostRead(x.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(n); i++ {
		want := float64(i%101) - 50
		if want < 0 {
			want = 0
		}
		if x.Buf.At(i) != want {
			t.Fatalf("x[%d] = %v, want %v", i, x.Buf.At(i), want)
		}
	}
}

// A large bulk transfer must not head-of-line-block the control channel:
// pings sampled during a 256 MiB stream stay within 10x the idle latency.
func TestPingNotBlockedByBulkTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("256 MiB transfer")
	}
	w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })

	const elems = int64(64 << 20) // 64 Mi float32 = 256 MiB
	meta := grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: elems}
	if err := fab.EnsureArray(1, meta); err != nil {
		t.Fatal(err)
	}
	src := kernels.NewBuffer(memmodel.Float32, int(elems))

	l := fab.links[1]
	ping := func() time.Duration {
		start := time.Now()
		if _, err := l.ctrl.call(&Request{Kind: MsgPing}); err != nil {
			t.Fatalf("ping: %v", err)
		}
		return time.Since(start)
	}
	// Idle baseline: median of repeated pings, floored at 1ms so the 10x
	// budget measures channel head-of-line blocking rather than goroutine
	// scheduling latency — on a loaded single-core machine a ping round
	// trip pays a few ms of scheduler queueing while the transfer's
	// memcpys saturate the CPU. The failure mode under test is orders of
	// magnitude larger: a serialized wire would park pings behind the
	// whole remaining transfer, hundreds of ms.
	var idle []time.Duration
	for i := 0; i < 30; i++ {
		idle = append(idle, ping())
	}
	for i := range idle {
		for j := i + 1; j < len(idle); j++ {
			if idle[j] < idle[i] {
				idle[i], idle[j] = idle[j], idle[i]
			}
		}
	}
	base := idle[len(idle)/2]
	if base < time.Millisecond {
		base = time.Millisecond
	}

	done := make(chan error, 1)
	go func() {
		_, err := fab.MoveArray(1, cluster.ControllerID, 1, 0, src, nil)
		done <- err
	}()
	// Sample pings for as long as the transfer runs; at least one must get
	// through quickly — the control channel is a separate connection and
	// never queues behind chunk frames.
	best := time.Duration(1 << 62)
	samples := 0
	for sampling := true; sampling; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("bulk transfer: %v", err)
			}
			sampling = false
		default:
			if d := ping(); d < best {
				best = d
			}
			samples++
		}
	}
	if samples == 0 {
		t.Skipf("transfer finished before any ping sample")
	}
	if limit := 10 * base; best > limit {
		t.Fatalf("best ping during 256 MiB transfer = %v, limit %v (idle median %v, %d samples)",
			best, limit, base, samples)
	}
}

// Sentinel errors must survive the framed wire: errors.Is works on the
// controller side for array-not-found, kernel-compile and OOM failures.
func TestTypedErrorsAcrossWire(t *testing.T) {
	_, fab, _ := startCluster(t, 1)

	// Fetch of an array the worker never saw.
	dst := kernels.NewBuffer(memmodel.Float32, 8)
	_, err := fab.MoveArray(dag.ArrayID(999), 1, cluster.ControllerID, 0, nil, dst)
	if !errors.Is(err, core.ErrArrayNotFound) {
		t.Fatalf("fetch of unknown array: %v, want core.ErrArrayNotFound", err)
	}
	// Send to an array the worker never saw.
	src := kernels.NewBuffer(memmodel.Float32, 8)
	_, err = fab.MoveArray(dag.ArrayID(998), cluster.ControllerID, 1, 0, src, nil)
	if !errors.Is(err, core.ErrArrayNotFound) {
		t.Fatalf("send to unknown array: %v, want core.ErrArrayNotFound", err)
	}
	// Kernel that does not compile.
	if err := fab.BuildKernel("this is not CUDA(", ""); !errors.Is(err, core.ErrKernelCompile) {
		t.Fatalf("garbage kernel: %v, want core.ErrKernelCompile", err)
	}
	// Allocation beyond the worker's 180 GiB host memory. The simulated
	// allocator rejects it before any real buffer is allocated.
	err = fab.EnsureArray(1, grcuda.ArrayMeta{ID: 5, Kind: memmodel.Float64, Len: 1 << 36})
	if !errors.Is(err, core.ErrOOM) {
		t.Fatalf("oversize ensure-array: %v, want core.ErrOOM", err)
	}
}

// Concurrent transfers of different arrays, started by six callers at
// once, serialise on one bulk channel and arrive bit-exact in both
// directions.
func TestConcurrentBulkTransfersSerialise(t *testing.T) {
	w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	// A small chunk size makes every transfer many chunks long, so a
	// caller that cut into another's stream would corrupt both.
	fab.chunk = 8 << 10
	smallChunks([]*WorkerServer{w}, 8<<10)

	const arrays = 6
	const elems = 1 << 16 // 256 KiB each at float32: 32 chunks
	srcs := make([]*kernels.Buffer, arrays)
	for a := 0; a < arrays; a++ {
		id := dag.ArrayID(a + 1)
		if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: id, Kind: memmodel.Float32, Len: elems}); err != nil {
			t.Fatal(err)
		}
		srcs[a] = kernels.NewBuffer(memmodel.Float32, elems)
		for i := 0; i < elems; i++ {
			srcs[a].Set(i, float64((a+1)*1000+i%997))
		}
	}
	// Ship all arrays concurrently.
	var wg sync.WaitGroup
	errs := make([]error, arrays)
	for a := 0; a < arrays; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			_, errs[a] = fab.MoveArray(dag.ArrayID(a+1), cluster.ControllerID, 1, 0, srcs[a], nil)
		}(a)
	}
	wg.Wait()
	for a, err := range errs {
		if err != nil {
			t.Fatalf("send array %d: %v", a+1, err)
		}
	}
	// Fetch them all back concurrently into fresh buffers.
	dsts := make([]*kernels.Buffer, arrays)
	for a := 0; a < arrays; a++ {
		dsts[a] = kernels.NewBuffer(memmodel.Float32, elems)
	}
	for a := 0; a < arrays; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			_, errs[a] = fab.MoveArray(dag.ArrayID(a+1), 1, cluster.ControllerID, 0, nil, dsts[a])
		}(a)
	}
	wg.Wait()
	for a, err := range errs {
		if err != nil {
			t.Fatalf("fetch array %d: %v", a+1, err)
		}
	}
	for a := 0; a < arrays; a++ {
		if d := srcs[a].MaxAbsDiff(dsts[a]); d != 0 {
			t.Fatalf("array %d: max abs diff %v after round trip", a+1, d)
		}
	}
}

// TestChunkStreamValidation: chunk frames must continue the receive they
// belong to — right request ID, offset where the last chunk ended, never
// past the declared length — and arrive only inside one. A worker fed
// anything else closes the channel without acknowledging, stays up for
// other clients, and a fabric dialed afterwards works. On the client side,
// a fetch answered OK after fewer bytes than its destination holds fails.
func TestChunkStreamValidation(t *testing.T) {
	const elems, half = 2048, 4 << 10 // array 1: 8 KiB of float32, two 4 KiB chunks
	w, err := NewWorkerServer("127.0.0.1:0", testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close() })
	setup, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: elems}); err != nil {
		t.Fatal(err)
	}
	_ = setup.Close()

	receive := func(id dag.ArrayID) []byte {
		return appendRequest(nil, &Request{Kind: MsgReceiveArray, ArrayID: id,
			Meta: grcuda.ArrayMeta{ID: id, Kind: memmodel.Float32, Len: elems}})
	}
	ping := appendRequest(nil, &Request{Kind: MsgPing})
	data := make([]byte, 2*half+8)
	type frame struct {
		ftype    byte
		id       uint64
		off, n   int
		reqBytes []byte
	}
	req := func(id uint64, p []byte) frame { return frame{ftype: frameRequest, id: id, reqBytes: p} }
	chunk := func(id uint64, off, n int) frame { return frame{ftype: frameChunk, id: id, off: off, n: n} }
	for _, tc := range []struct {
		name   string
		frames []frame
	}{
		{"repeated offset", []frame{req(1, receive(1)), chunk(1, 0, half), chunk(1, 0, half)}},
		{"gap", []frame{req(1, receive(1)), chunk(1, half, half)}},
		{"past the declared length", []frame{req(1, receive(1)), chunk(1, 0, 2*half+8)}},
		{"another request's id", []frame{req(1, receive(1)), chunk(2, 0, half)}},
		{"request inside the chunks", []frame{req(1, receive(1)), chunk(1, 0, half), req(2, ping)}},
		{"chunk outside a receive", []frame{chunk(1, 0, half)}},
		{"refused receive, repeated offset", []frame{req(1, receive(9)), chunk(1, 0, half), chunk(1, 0, half)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc, err := dialFramed(w.Addr(), helloBulk, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer fc.close()
			for _, f := range tc.frames {
				if f.ftype == frameRequest {
					err = fc.bufferFrame(frameRequest, f.id, f.reqBytes)
				} else {
					err = fc.writeChunk(f.id, f.off, data[:f.n])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := fc.flushFrames(); err != nil {
				t.Fatal(err)
			}
			fc.armRead(5 * time.Second)
			if h, err := fc.readHeader(); err == nil {
				t.Fatalf("worker answered with a frame of type %d instead of closing the channel", h.ftype)
			} else if errors.Is(wrapNetErr(err), core.ErrTimeout) {
				t.Fatal("worker kept the channel open")
			}
		})
	}
	t.Run("short fetch", func(t *testing.T) {
		// A fake worker answers a fetch of 8 KiB OK after one 4 KiB chunk.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			defer raw.Close()
			fc := newFramedConn(raw, nil)
			var hello [helloLen]byte
			if _, err := io.ReadFull(fc.r, hello[:]); err != nil {
				return
			}
			h, err := fc.readHeader()
			if err != nil || fc.discardPayload(h.n) != nil {
				return
			}
			if fc.writeChunk(h.reqID, 0, data[:half]) != nil ||
				fc.bufferFrame(frameResponse, h.reqID, appendResponse(nil, &Response{})) != nil {
				return
			}
			_ = fc.flushFrames()
			_, _ = io.Copy(io.Discard, raw)
		}()
		fc, err := dialFramed(ln.Addr().String(), helloBulk, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c := newRPCConn(fc, 5*time.Second)
		defer c.close()
		err = c.fetchArray(1, make([]byte, 2*half))
		if err == nil || !strings.Contains(err.Error(), "4096 of 8192 bytes") {
			t.Fatalf("short fetch = %v, want an error naming 4096 of 8192 bytes", err)
		}
	})

	fab, err := Dial([]string{w.Addr()})
	if err != nil {
		t.Fatalf("worker wedged after corrupt chunk streams: %v", err)
	}
	defer fab.Close()
	src := kernels.NewBuffer(memmodel.Float32, elems)
	for i := 0; i < elems; i++ {
		src.Set(i, float64(i))
	}
	dst := kernels.NewBuffer(memmodel.Float32, elems)
	if _, err := fab.MoveArray(1, cluster.ControllerID, 1, 0, src, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.MoveArray(1, 1, cluster.ControllerID, 0, nil, dst); err != nil {
		t.Fatal(err)
	}
	if d := src.MaxAbsDiff(dst); d != 0 {
		t.Fatalf("round trip after corrupt streams: max abs diff %v", d)
	}
}

// TestRejectedReceiveKeepsStreamInSync: a receive the worker refuses — an
// unknown array, a wrongly sized one — gets its typed error after its
// chunks are consumed, and the fetch queued behind both on the same bulk
// connection gets the right bytes.
func TestRejectedReceiveKeepsStreamInSync(t *testing.T) {
	const elems, chunk = 4096, 4 << 10 // 16 KiB of float32: four chunks
	_, fab, workers := startCluster(t, 1)
	want := kernels.NewBuffer(memmodel.Float32, elems)
	for i := 0; i < elems; i++ {
		want.Set(i, float64(i%251)-125)
	}
	if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: elems}); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.MoveArray(1, cluster.ControllerID, 1, 0, want, nil); err != nil {
		t.Fatal(err)
	}
	fc, err := dialFramed(workers[0].Addr(), helloBulk, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b := newRPCConn(fc, 5*time.Second)
	defer b.close()
	raw := want.RawBytes()
	err = b.sendArray(99, grcuda.ArrayMeta{ID: 99, Kind: memmodel.Float32, Len: elems}, raw, chunk, nil)
	if !errors.Is(err, core.ErrArrayNotFound) {
		t.Fatalf("receive into an unknown array = %v, want core.ErrArrayNotFound", err)
	}
	err = b.sendArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: elems / 2}, raw[:len(raw)/2], chunk, nil)
	if err == nil || !strings.Contains(err.Error(), "sent bytes") {
		t.Fatalf("receive of the wrong size = %v, want a size mismatch", err)
	}
	got := kernels.NewBuffer(memmodel.Float32, elems)
	if err := b.fetchArray(1, got.RawBytes()); err != nil {
		t.Fatalf("fetch behind two refused receives: %v", err)
	}
	if d := want.MaxAbsDiff(got); d != 0 {
		t.Fatalf("fetch behind two refused receives: max abs diff %v", d)
	}
	if err := b.broken(); err != nil {
		t.Fatalf("refused receives broke the channel: %v", err)
	}
}
