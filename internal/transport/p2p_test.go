package transport

// Tests for the worker→worker path (DESIGN.md §5.2): persistent peer
// links (dialed once, shared by concurrent pushes, torn down with the
// server, redialed when stale), the clone-free chunk-snapshot push, the
// bounded wait for the receive acknowledgement, the one-write small
// transfer and the controller's ensure memo. The seeded differential
// against the serial run, with moved bytes and P2P counts pinned to the
// values measured before persistent links, is
// TestStreamedMatchesSerialAndBlocking (stream_test.go).

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// wireTap is a frame-aware TCP proxy in front of one worker. Everything a
// fabric or a peer sends the worker passes through it, so it can count
// what really crossed the wire — connections by channel, request frames
// by kind — and cut or poison those connections.
type wireTap struct {
	ln       net.Listener
	upstream string

	mu    sync.Mutex
	conns map[byte]int    // accepted connections, by hello channel
	reqs  map[MsgKind]int // request frames forwarded to the worker
	live  map[*tapConn]struct{}
}

// tapConn is one proxied connection.
type tapConn struct {
	client, worker net.Conn
	// peer marks a worker's push link: a bulk connection accepted after
	// the fabric's own (the fabric dials before any push can run).
	peer bool
	// stale makes the tap drop the connection when the client next sends
	// a frame: a peer that went away without the client noticing.
	stale atomic.Bool
}

func (c *tapConn) close() {
	_ = c.client.Close()
	_ = c.worker.Close()
}

func startTap(t *testing.T, upstream string) *wireTap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tap := &wireTap{ln: ln, upstream: upstream,
		conns: make(map[byte]int), reqs: make(map[MsgKind]int), live: make(map[*tapConn]struct{})}
	t.Cleanup(tap.kill)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go tap.serve(c)
		}
	}()
	return tap
}

func (tap *wireTap) addr() string { return tap.ln.Addr().String() }

// serve forwards one connection: the hello and every client frame to the
// worker (counting them), the worker's bytes back verbatim.
func (tap *wireTap) serve(client net.Conn) {
	var hello [helloLen]byte
	if _, err := io.ReadFull(client, hello[:]); err != nil {
		_ = client.Close()
		return
	}
	worker, err := net.Dial("tcp", tap.upstream)
	if err != nil {
		_ = client.Close()
		return
	}
	c := &tapConn{client: client, worker: worker}
	tap.mu.Lock()
	tap.conns[hello[4]]++
	c.peer = hello[4] == helloBulk && tap.conns[helloBulk] > 1
	tap.live[c] = struct{}{}
	tap.mu.Unlock()
	defer func() {
		c.close()
		tap.mu.Lock()
		delete(tap.live, c)
		tap.mu.Unlock()
	}()
	if _, err := worker.Write(hello[:]); err != nil {
		return
	}
	go func() {
		_, _ = io.Copy(client, worker)
		c.close()
	}()
	fc := newFramedConn(client, nil)
	var req Request
	for {
		h, err := fc.readHeader()
		if err != nil || c.stale.Load() {
			return
		}
		frame := make([]byte, frameHeaderLen+h.n)
		putFrameHeader(frame, h.n, h.ftype, h.reqID)
		if err := fc.readInto(frame[frameHeaderLen:]); err != nil {
			return
		}
		if h.ftype == frameRequest && parseRequestInto(frame[frameHeaderLen:], &req) == nil {
			tap.mu.Lock()
			tap.reqs[req.Kind]++
			tap.mu.Unlock()
		}
		if _, err := worker.Write(frame); err != nil {
			return
		}
	}
}

func (tap *wireTap) each(f func(*tapConn)) {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	for c := range tap.live {
		f(c)
	}
}

// sever drops every established connection; the tap keeps accepting.
func (tap *wireTap) sever() { tap.each((*tapConn).close) }

// goStale poisons every established peer link (see tapConn.stale).
func (tap *wireTap) goStale() { tap.each(func(c *tapConn) { c.stale.Store(c.peer) }) }

// kill makes the worker unreachable: no new connections, none left.
func (tap *wireTap) kill() {
	_ = tap.ln.Close()
	tap.sever()
}

// accepted counts the connections the tap has taken up.
func (tap *wireTap) accepted() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.conns[helloControl] + tap.conns[helloBulk]
}

// peerConns counts the peer links ever opened to the worker.
func (tap *wireTap) peerConns() int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.conns[helloBulk] - 1
}

func (tap *wireTap) requests(k MsgKind) int {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return tap.reqs[k]
}

// tappedFleet starts n workers, each behind a wireTap, and dials a fabric
// through the taps: worker→worker pushes go to the tap addresses too.
func tappedFleet(t *testing.T, n int, sopts ServerOptions, dopts DialOptions) ([]*WorkerServer, []*wireTap, *TCPFabric) {
	t.Helper()
	var workers []*WorkerServer
	var taps []*wireTap
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := NewWorkerServerOpts("127.0.0.1:0", testSpec(), nil, sopts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = w.Close() })
		tap := startTap(t, w.Addr())
		workers, taps, addrs = append(workers, w), append(taps, tap), append(addrs, tap.addr())
	}
	fab, err := DialWith(addrs, dopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fab.Close() })
	// The taps take connections up asynchronously; what they count as peer
	// links is whatever follows the fabric's own pair, so wait for that.
	for _, tap := range taps {
		for deadline := time.Now().Add(5 * time.Second); tap.accepted() < 2; {
			if time.Now().After(deadline) {
				t.Fatal("tap never saw the fabric's two connections")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return workers, taps, fab
}

// seedArray mirrors a Float32 array of the given size on every worker and
// ships seeded random contents to worker 1; it returns the wire bytes.
func seedArray(t *testing.T, fab *TCPFabric, id dag.ArrayID, nbytes int, seed int64) []byte {
	t.Helper()
	buf := kernels.NewBuffer(memmodel.Float32, nbytes/4)
	rng := rand.New(rand.NewSource(seed))
	for i := range buf.F32 {
		buf.F32[i] = rng.Float32()*2 - 1
	}
	meta := grcuda.ArrayMeta{ID: id, Kind: memmodel.Float32, Len: int64(buf.Len())}
	for _, w := range fab.Workers() {
		if err := fab.EnsureArray(w, meta); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fab.MoveArray(id, cluster.ControllerID, 1, 0, buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.RawBytes()
}

// arrayOn fetches array id's wire bytes from worker w.
func arrayOn(t *testing.T, fab *TCPFabric, w cluster.NodeID, id dag.ArrayID, nbytes int) []byte {
	t.Helper()
	buf := kernels.NewBuffer(memmodel.Float32, nbytes/4)
	if _, err := fab.MoveArray(id, w, cluster.ControllerID, 0, nil, buf); err != nil {
		t.Fatal(err)
	}
	return buf.RawBytes()
}

func push(fab *TCPFabric, id dag.ArrayID, src, dst cluster.NodeID) error {
	_, err := fab.MoveArray(id, src, dst, 0, nil, nil)
	return err
}

// smallChunks makes every worker cut its fetch streams and pushes into
// n-byte chunks.
func smallChunks(workers []*WorkerServer, n int) {
	for _, w := range workers {
		w.mu.Lock()
		w.chunk = n
		w.mu.Unlock()
	}
}

// peerBC returns the peer pipeline w currently holds for the peer at addr.
func peerBC(w *WorkerServer, addr string) *rpcConn {
	w.mu.Lock()
	pl := w.peers[addr]
	w.mu.Unlock()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.bc
}

// TestP2PDialOnce: pushes between one worker pair share one peer bulk
// connection however many there are, and pushing to a second peer adds
// exactly one more.
func TestP2PDialOnce(t *testing.T) {
	const k, nbytes = 20, 64 << 10
	_, taps, fab := tappedFleet(t, 3, ServerOptions{}, DialOptions{})
	want := seedArray(t, fab, 1, nbytes, 1)
	for i := 0; i < k; i++ {
		if err := push(fab, 1, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := taps[1].peerConns(); got != 1 {
		t.Fatalf("%d pushes w1→w2 opened %d peer connections, want 1", k, got)
	}
	for i := 0; i < k; i++ {
		if err := push(fab, 1, 1, 3); err != nil {
			t.Fatal(err)
		}
	}
	if to2, to3, to1 := taps[1].peerConns(), taps[2].peerConns(), taps[0].peerConns(); to2 != 1 || to3 != 1 || to1 != 0 {
		t.Fatalf("peer connections to w2/w3/w1 = %d/%d/%d, want 1/1/0", to2, to3, to1)
	}
	for w := cluster.NodeID(2); w <= 3; w++ {
		if !bytes.Equal(arrayOn(t, fab, w, 1, nbytes), want) {
			t.Fatalf("worker %v holds different bytes than were pushed", w)
		}
	}
}

// TestP2PConcurrentPushesOneLink: eight pushes of different arrays, small
// and many-chunk, started at once, queue on the one link to their peer and
// arrive bit-identical.
func TestP2PConcurrentPushesOneLink(t *testing.T) {
	const arrays, rounds = 8, 4
	workers, taps, fab := tappedFleet(t, 2, ServerOptions{}, DialOptions{})
	smallChunks(workers, 4<<10)
	size := func(i int) int {
		if i%2 == 0 {
			return 4 << 10
		}
		return 1 << 20
	}
	want := make([][]byte, arrays)
	for i := range want {
		want[i] = seedArray(t, fab, dag.ArrayID(i+1), size(i), int64(i+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, arrays)
	for i := 0; i < arrays; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := push(fab, dag.ArrayID(i+1), 1, 2); err != nil {
					errs <- fmt.Errorf("array %d round %d: %w", i+1, r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := range want {
		if !bytes.Equal(arrayOn(t, fab, 2, dag.ArrayID(i+1), size(i)), want[i]) {
			t.Errorf("array %d (%d bytes) differs at the destination", i+1, size(i))
		}
	}
	if got := taps[1].peerConns(); got != 1 {
		t.Fatalf("concurrent pushes opened %d peer connections, want 1", got)
	}
}

// TestP2PPushCycleNoDeadlock: w1→w2 and w2→w1 pushes in flight together,
// with launches running on both workers, finish — no push ever holds its
// worker's runtime lock across the network.
func TestP2PPushCycleNoDeadlock(t *testing.T) {
	const rounds, nbytes = 12, 1 << 20
	workers, _, fab := tappedFleet(t, 2, ServerOptions{}, DialOptions{})
	smallChunks(workers, 4<<10)
	// Arrays 1 and 3 live on w1; 2 and 4 are moved to w2. 1 and 2 are
	// pushed across, 3 and 4 are launched on in place.
	for id := dag.ArrayID(1); id <= 4; id++ {
		seedArray(t, fab, id, nbytes, int64(id))
	}
	for _, id := range []dag.ArrayID{2, 4} {
		if err := push(fab, id, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	relu := func(id dag.ArrayID) core.Invocation {
		return core.Invocation{Kernel: "relu", Args: []core.ArgRef{core.ArrRef(id), core.ScalarRef(nbytes / 4)}}
	}
	jobs := []func() error{
		func() error { return push(fab, 1, 1, 2) },
		func() error { return push(fab, 2, 2, 1) },
		func() error { _, err := fab.Launch(1, relu(3), 0); return err },
		func() error { _, err := fab.Launch(2, relu(4), 0); return err },
	}
	done := make(chan error, len(jobs))
	for _, job := range jobs {
		go func() {
			for r := 0; r < rounds; r++ {
				if err := job(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for range jobs {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("push cycle did not finish: deadlock")
		}
	}
}

// peerKillProgram leaves x current on worker 1 only (with a cached
// w1→w2 link behind it) and z current on worker 2 only, under round-robin
// over three workers; then the next launch lands on worker 2 and needs x
// pushed there, and the last one needs z.
func peerKillProgram(n int) (before, after []core.Invocation) {
	nArg := core.ScalarRef(float64(n))
	x, y, z := core.ArrRef(1), core.ArrRef(2), core.ArrRef(3)
	before = []core.Invocation{
		{Kernel: "fill", Args: []core.ArgRef{x, core.ScalarRef(-3), nArg}},      // w1
		{Kernel: "scale", Args: []core.ArgRef{x, x, core.ScalarRef(-2), nArg}},  // w2: push w1→w2
		{Kernel: "fill", Args: []core.ArgRef{z, core.ScalarRef(2), nArg}},       // w3
		{Kernel: "scale", Args: []core.ArgRef{x, x, core.ScalarRef(1.5), nArg}}, // w1: push w2→w1
		{Kernel: "scale", Args: []core.ArgRef{z, z, core.ScalarRef(-1), nArg}},  // w2: push w3→w2
		{Kernel: "fill", Args: []core.ArgRef{y, core.ScalarRef(7), nArg}},       // w3
		{Kernel: "relu", Args: []core.ArgRef{x, nArg}},                          // w1
	}
	after = []core.Invocation{
		{Kernel: "scale", Args: []core.ArgRef{x, x, core.ScalarRef(0.5), nArg}}, // w2: push w1→w2
		{Kernel: "axpy", Args: []core.ArgRef{y, z, core.ScalarRef(2), nArg}},    // needs z, only on w2
	}
	return before, after
}

// TestP2PPeerKilledFailover: the peer of a cached link dies between two
// pushes, or in the middle of one. The pushing worker reports a typed
// transport error; with Failover the controller writes the peer off,
// replays what only it held from lineage, and the program ends
// bit-identical to a healthy serial run.
func TestP2PPeerKilledFailover(t *testing.T) {
	const n = 1 << 18 // 1 MiB arrays: 256 chunks of 4 KiB
	before, after := peerKillProgram(n)
	run := func(t *testing.T, ctl *core.Controller, midway func()) [][]float64 {
		t.Helper()
		for i := 0; i < 3; i++ {
			if _, err := ctl.NewArray(memmodel.Float32, n); err != nil {
				t.Fatal(err)
			}
		}
		for _, inv := range before {
			if _, err := ctl.Launch(inv); err != nil {
				t.Fatal(err)
			}
		}
		midway()
		for _, inv := range after {
			if _, err := ctl.Launch(inv); err != nil {
				t.Fatal(err)
			}
		}
		out, err := readArrays(ctl, 3)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	local := core.NewController(
		core.NewLocalFabric(cluster.New(cluster.PaperSpec(3)), kernels.StdRegistry(), true),
		policy.NewRoundRobin(), core.Options{Numeric: true})
	want := run(t, local, func() {})

	for _, mode := range []string{"between pushes", "mid-push"} {
		t.Run(mode, func(t *testing.T) {
			workers, taps, fab := tappedFleet(t, 3, ServerOptions{}, DialOptions{})
			smallChunks(workers, 4<<10)
			ctl := core.NewController(fab, policy.NewRoundRobin(), core.Options{Numeric: true, Failover: true})
			defer ctl.Close()
			got := run(t, ctl, func() {
				if mode == "between pushes" {
					if err := workers[1].Close(); err != nil {
						t.Fatal(err)
					}
					return
				}
				// Stall worker 2 so the push toward it stops after the
				// chunks the sockets absorb, cut it off once worker 1 has
				// the transfer in flight, then let it go.
				sent := taps[1].requests(MsgReceiveArray)
				workers[1].mu.Lock()
				go func() {
					defer workers[1].mu.Unlock()
					for taps[1].requests(MsgReceiveArray) == sent {
						time.Sleep(time.Millisecond)
					}
					taps[1].kill()
				}()
			})
			sameArrays(t, mode, got, want)
			if ctl.Failovers() < 1 || ctl.Recoveries() < 1 {
				t.Fatalf("failovers = %d, recoveries = %d, want >= 1 each", ctl.Failovers(), ctl.Recoveries())
			}
		})
	}
}

// TestPeerLinkStaleRetry: the peer behind a cached link goes away without
// the pusher noticing. The next push fails on the reused link before any
// acknowledgement and is retried once on a fresh one; an error the peer
// itself answers is returned without a redial.
func TestPeerLinkStaleRetry(t *testing.T) {
	const nbytes = 64 << 10
	workers, taps, fab := tappedFleet(t, 2, ServerOptions{}, DialOptions{})
	seedArray(t, fab, 1, nbytes, 1)
	if err := push(fab, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	taps[1].goStale()
	want := seedArray(t, fab, 1, nbytes, 2) // new contents on w1
	if err := push(fab, 1, 1, 2); err != nil {
		t.Fatalf("push over a stale link: %v", err)
	}
	if !bytes.Equal(arrayOn(t, fab, 2, 1, nbytes), want) {
		t.Fatal("retried push delivered different bytes")
	}
	if got := taps[1].peerConns(); got != 2 {
		t.Fatalf("%d peer connections after one retry, want 2", got)
	}
	bc := peerBC(workers[0], taps[1].addr())
	if bc.broken() != nil {
		t.Fatalf("link after the retry is broken: %v", bc.broken())
	}

	// Worker 2 drops the array: the push is refused by the peer, typed,
	// over the same link.
	if err := fab.FreeArray(2, 1); err != nil {
		t.Fatal(err)
	}
	err := workers[0].pushTo(&Request{Kind: MsgPushTo, ArrayID: 1, PeerAddr: taps[1].addr()})
	if !errors.Is(err, core.ErrArrayNotFound) {
		t.Fatalf("push of an array the peer lacks = %v, want core.ErrArrayNotFound", err)
	}
	if got := taps[1].peerConns(); got != 2 || bc.broken() != nil {
		t.Fatalf("a remote error cost a redial (%d peer connections, want 2) or the link (%v)", got, bc.broken())
	}
}

// openFDs counts this process's open file descriptors, or -1 where /proc
// does not say.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestPeerLinkTeardown: after pushes in both directions, closing the
// fleet — by Close or by MsgShutdown — leaves no goroutine and no socket
// behind: peer links and their readers die with the server on both ends.
func TestPeerLinkTeardown(t *testing.T) {
	for _, how := range []string{"Close", "Shutdown"} {
		t.Run(how, func(t *testing.T) {
			goroutines, fds := runtime.NumGoroutine(), openFDs()
			workers, addrs := startWorkers(t, 2)
			fab, err := Dial(addrs)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Close()
			seedArray(t, fab, 1, 64<<10, 1)
			for i := 0; i < 10; i++ {
				if err := push(fab, 1, 1, 2); err != nil {
					t.Fatal(err)
				}
				if err := push(fab, 1, 2, 1); err != nil {
					t.Fatal(err)
				}
			}
			if how == "Shutdown" {
				if err := fab.Shutdown(); err != nil {
					t.Fatal(err)
				}
			} else {
				_ = fab.Close()
				for _, w := range workers {
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > goroutines || openFDs() > fds {
				if time.Now().After(deadline) {
					t.Fatalf("after %s: %d goroutines (baseline %d), %d fds (baseline %d)",
						how, runtime.NumGoroutine(), goroutines, openFDs(), fds)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestReceiveAckTimeout: a peer that takes every byte of a push and never
// acknowledges costs the pusher one Timeout, typed core.ErrTimeout,
// and the link — the next push dials again. The controller's wait for a
// push *command* stays unbounded: the peer-to-peer transfer may take as
// long as it makes progress.
func TestReceiveAckTimeout(t *testing.T) {
	const window = 300 * time.Millisecond
	workers, _, fab := tappedFleet(t, 2, ServerOptions{Timeout: window}, DialOptions{Timeout: window / 3})
	seedArray(t, fab, 1, 64<<10, 1)
	silent := &Request{Kind: MsgPushTo, ArrayID: 1, PeerAddr: hungListener(t)}
	var last *rpcConn
	for attempt := 1; attempt <= 2; attempt++ {
		start := time.Now()
		err := workers[0].pushTo(silent)
		if took := time.Since(start); !errors.Is(err, core.ErrTimeout) || took < window || took > 20*window {
			t.Fatalf("push %d to a silent peer: %v after %v, want core.ErrTimeout after ~%v", attempt, err, took, window)
		}
		bc := peerBC(workers[0], silent.PeerAddr)
		if bc == last || bc.broken() == nil {
			t.Fatalf("push %d: link redialed = %v, broken = %v, want both", attempt, bc != last, bc.broken())
		}
		last = bc
	}

	// A push that takes several of the controller's windows (worker 2 is
	// stalled, so its acknowledgement is late) still succeeds.
	workers[1].mu.Lock()
	time.AfterFunc(window*2/3, workers[1].mu.Unlock)
	if err := push(fab, 1, 1, 2); err != nil {
		t.Fatalf("slow push command: %v", err)
	}
}

// writeSyscalls reads the process's write-syscall count, or -1 where
// /proc does not say.
func writeSyscalls() int {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "syscw: %d", &n); err == nil {
			return n
		}
	}
	return -1
}

// TestP2POneChunkOneWrite: a transfer that fits one chunk leaves in one
// write — request frame and chunk together. Counted in syscalls for the
// whole process over k pushes on a warm link: per push the fabric's
// command, the pusher's transfer, the peer's acknowledgement and the
// pusher's answer make four; a request written apart from its chunk makes
// five.
func TestP2POneChunkOneWrite(t *testing.T) {
	if writeSyscalls() < 0 {
		t.Skip("/proc/self/io not readable")
	}
	const k = 400
	_, addrs := startWorkers(t, 2)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	seedArray(t, fab, 1, 64<<10, 1)
	if err := push(fab, 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	before := writeSyscalls()
	for i := 0; i < k; i++ {
		if err := push(fab, 1, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := writeSyscalls() - before; got >= 4*k+k/2 {
		t.Fatalf("%d pushes cost %d write syscalls, want about %d", k, got, 4*k)
	}
}

// TestEnsureMemo: the fabric sends MsgEnsureArray once per array and
// link, not once per launch; a freed array, a differing ArrayMeta and a
// redialed link all go back to the worker.
func TestEnsureMemo(t *testing.T) {
	const nArr, launches = 3, 30
	workers, taps, fab := tappedFleet(t, 2, ServerOptions{}, DialOptions{Redial: true})
	ensures := func() (n int) {
		for _, tap := range taps {
			n += tap.requests(MsgEnsureArray)
		}
		return n
	}
	ctl := core.NewController(hideStream(fab), policy.NewRoundRobin(), core.Options{Numeric: true})
	defer ctl.Close()
	for i := 0; i < nArr; i++ {
		if _, err := ctl.NewArray(memmodel.Float32, streamElems); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < launches; i++ {
		if _, err := ctl.Launch(core.Invocation{Kernel: "relu",
			Args: []core.ArgRef{core.ArrRef(dag.ArrayID(1 + i%nArr)), core.ScalarRef(streamElems)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := ensures(); got == 0 || got > nArr*len(workers) {
		t.Fatalf("%d launches over %d arrays on %d workers sent %d ensures, want 1..%d",
			launches, nArr, len(workers), got, nArr*len(workers))
	}

	// The step helper sends one EnsureArray to worker 1 and reports
	// whether it crossed the wire; either way the worker must hold the
	// array afterwards.
	step := func(what string, meta grcuda.ArrayMeta, wantRPC bool) {
		t.Helper()
		before := taps[0].requests(MsgEnsureArray)
		if err := fab.EnsureArray(1, meta); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if sent := taps[0].requests(MsgEnsureArray) > before; sent != wantRPC {
			t.Fatalf("%s: ensure sent = %v, want %v", what, sent, wantRPC)
		}
		workers[0].mu.Lock()
		held := workers[0].rt.Array(meta.ID) != nil
		workers[0].mu.Unlock()
		if !held {
			t.Fatalf("%s: worker 1 does not hold array %d", what, meta.ID)
		}
	}
	meta := grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: streamElems}
	step("known array", meta, false)
	if err := fab.FreeArray(1, 1); err != nil {
		t.Fatal(err)
	}
	step("freed and made again", meta, true)
	step("known again", meta, false)
	other := meta
	other.Len *= 2
	step("same ID, other metadata", other, true)

	taps[0].sever()
	deadline := time.Now().Add(5 * time.Second)
	for !fab.links[1].broken() {
		if time.Now().After(deadline) {
			t.Fatal("severed link never noticed")
		}
		time.Sleep(time.Millisecond)
	}
	step("redialed link", other, true)
}
