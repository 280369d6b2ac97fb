// ChaosFabric: deterministic fault injection for recovery testing.
//
// Wraps any Fabric and injects failures at precise, seeded points —
// kill-worker-at-Nth-launch, hang-worker (every call eats the modeled RPC
// deadline, then times out), sever-the-Nth-transfer, slow links, and
// seeded random transient faults — so the Controller's failover, lineage
// recovery, and retry/backoff paths are testable in-process, without real
// sockets and without flaky timing. ChaosFabric deliberately does NOT
// implement ConcurrentDispatcher even when its inner fabric does: the
// controller then streams nothing and issues every fabric call in
// submission order, which makes the injection counters (and therefore each
// run's fault schedule) exactly reproducible.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// ChaosOptions declares a deterministic fault schedule.
type ChaosOptions struct {
	// KillAtLaunch kills a worker at its Nth Launch call (1-based): that
	// launch fails, and every later operation touching the worker —
	// including reads of data it exclusively holds — fails too, with
	// Healthy reporting false. Zero means never.
	KillAtLaunch map[cluster.NodeID]int
	// HangAtLaunch makes a worker unresponsive starting at its Nth Launch
	// call (1-based): that call and every later one block for
	// CallDeadline of wall time and then return ErrTimeout, exactly like
	// an RPC deadline expiring against a wedged process.
	HangAtLaunch map[cluster.NodeID]int
	// CallDeadline is the modeled RPC deadline a hung worker's calls
	// (and Healthy probes) consume before timing out. Default 25ms.
	CallDeadline time.Duration
	// SeverMoves lists 1-based global MoveArray indices that fail once
	// with ErrTransient, as if the connection died mid-chunk; the
	// transfer performs no work, and a retry of the same move succeeds.
	SeverMoves []int
	// SlowLink adds a wall-clock delay to every MoveArray, for exercising
	// timing budgets.
	SlowLink time.Duration
	// FailRate injects random transient Launch failures with the given
	// probability, drawn from a generator seeded with Seed — noisy but
	// reproducible.
	FailRate float64
	// Seed seeds the FailRate generator. Zero means seed 1.
	Seed int64
}

// ChaosFabric wraps an inner Fabric with the fault schedule. It follows
// Fabric's wrapper rule: the three fast paths forward through their
// helpers, so a fault-free ChaosFabric is the inner fabric's program, and
// AsyncLauncher is not forwarded — faults are injected per blocking call,
// so the controller must take the blocking Launch path through it.
type ChaosFabric struct {
	inner Fabric
	opt   ChaosOptions

	mu       sync.Mutex
	launches map[cluster.NodeID]int
	moves    int
	sever    map[int]bool
	dead     map[cluster.NodeID]bool
	hung     map[cluster.NodeID]bool
	rng      *rand.Rand
	injected int
}

// NewChaosFabric wraps inner with a deterministic fault schedule.
func NewChaosFabric(inner Fabric, opt ChaosOptions) *ChaosFabric {
	if opt.CallDeadline <= 0 {
		opt.CallDeadline = 25 * time.Millisecond
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	f := &ChaosFabric{
		inner:    inner,
		opt:      opt,
		launches: make(map[cluster.NodeID]int),
		sever:    make(map[int]bool),
		dead:     make(map[cluster.NodeID]bool),
		hung:     make(map[cluster.NodeID]bool),
		rng:      rand.New(rand.NewSource(seed)),
	}
	for _, m := range opt.SeverMoves {
		f.sever[m] = true
	}
	return f
}

// Injected reports how many faults the schedule has fired so far.
func (f *ChaosFabric) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// errDead is the terminal failure every operation on a killed worker
// returns. Deliberately not transient: retrying a dead process in place
// cannot help, only failover can.
func (f *ChaosFabric) errDead(w cluster.NodeID) error {
	return fmt.Errorf("chaos: worker %v was killed", w)
}

// checkWorker fires the dead/hung behavior for one endpoint. Caller must
// NOT hold f.mu (hung workers sleep).
func (f *ChaosFabric) checkWorker(w cluster.NodeID) error {
	if !w.IsWorker() {
		return nil
	}
	f.mu.Lock()
	dead, hung := f.dead[w], f.hung[w]
	f.mu.Unlock()
	if dead {
		return f.errDead(w)
	}
	if hung {
		time.Sleep(f.opt.CallDeadline)
		return fmt.Errorf("chaos: call to hung worker %v: %w", w, ErrTimeout)
	}
	return nil
}

// Workers implements Fabric.
func (f *ChaosFabric) Workers() []cluster.NodeID { return f.inner.Workers() }

// EnsureArray implements Fabric.
func (f *ChaosFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	if err := f.checkWorker(w); err != nil {
		return err
	}
	return f.inner.EnsureArray(w, meta)
}

// nextMove charges one wire operation: the SlowLink delay and one count
// against the sever schedule. It reports whether this operation is
// severed.
func (f *ChaosFabric) nextMove() bool {
	if f.opt.SlowLink > 0 {
		time.Sleep(f.opt.SlowLink)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.moves++
	severed := f.sever[f.moves]
	if severed {
		delete(f.sever, f.moves)
		f.injected++
	}
	return severed
}

// MoveArray implements Fabric. Severed moves fail before any data flows,
// so a retry or a reroute observes a clean source.
func (f *ChaosFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID,
	srcReady sim.VirtualTime, srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	if f.nextMove() {
		return 0, fmt.Errorf("chaos: transfer of array %d severed mid-chunk: %w", id, ErrTransient)
	}
	if err := f.checkWorker(src); err != nil {
		return 0, err
	}
	if err := f.checkWorker(dst); err != nil {
		return 0, err
	}
	return f.inner.MoveArray(id, src, dst, srcReady, srcBuf, dstBuf)
}

// Launch implements Fabric and is where kill/hang schedules trigger.
func (f *ChaosFabric) Launch(w cluster.NodeID, inv Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	f.mu.Lock()
	f.launches[w]++
	n := f.launches[w]
	if k := f.opt.KillAtLaunch[w]; k > 0 && n >= k && !f.dead[w] {
		f.dead[w] = true
		f.injected++
	}
	if h := f.opt.HangAtLaunch[w]; h > 0 && n >= h && !f.hung[w] && !f.dead[w] {
		f.hung[w] = true
		f.injected++
	}
	roll := f.opt.FailRate > 0 && !f.dead[w] && !f.hung[w] && f.rng.Float64() < f.opt.FailRate
	if roll {
		f.injected++
	}
	f.mu.Unlock()
	if err := f.checkWorker(w); err != nil {
		return 0, err
	}
	if roll {
		return 0, fmt.Errorf("chaos: injected transient launch failure on %v: %w", w, ErrTransient)
	}
	return f.inner.Launch(w, inv, ready)
}

// EstimateTransfer implements Fabric; estimates are controller-local and
// never fault.
func (f *ChaosFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return f.inner.EstimateTransfer(src, dst, n)
}

// EstimateTransferAll implements BulkEstimator; estimates never fault.
func (f *ChaosFabric) EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes,
	dsts []cluster.NodeID, out []sim.VirtualTime) {
	EstimateTransferAll(f.inner, src, n, dsts, out)
}

// PredictStall implements StallPredictor; predictions never fault.
func (f *ChaosFabric) PredictStall(w cluster.NodeID, add, working memmodel.Bytes,
	pattern memmodel.Pattern) sim.VirtualTime {
	return PredictStall(f.inner, w, add, working, pattern)
}

// FreeArray implements Fabric. Freeing a replica on a dead or hung worker
// is moot — the data is unreachable either way — so it succeeds silently
// rather than failing cleanup paths.
func (f *ChaosFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	f.mu.Lock()
	gone := f.dead[w] || f.hung[w]
	f.mu.Unlock()
	if gone {
		return nil
	}
	return f.inner.FreeArray(w, id)
}

// Healthy implements Fabric: a killed worker reports dead immediately; a
// hung worker eats the probe's deadline first, like a real timed-out ping.
func (f *ChaosFabric) Healthy(w cluster.NodeID) bool {
	f.mu.Lock()
	dead, hung := f.dead[w], f.hung[w]
	f.mu.Unlock()
	if dead {
		return false
	}
	if hung {
		time.Sleep(f.opt.CallDeadline)
		return false
	}
	return f.inner.Healthy(w)
}

// BuildKernel implements KernelBuilder.
func (f *ChaosFabric) BuildKernel(src, signature string) error {
	return BuildKernel(f.inner, src, signature)
}
