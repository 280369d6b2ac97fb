package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/policy"
	"grout/internal/ring"
	"grout/internal/sim"
)

// GlobalArray is a framework-managed array as the Controller sees it:
// metadata, the controller-side host buffer (numeric mode), and the
// data-location registry entry — which nodes hold an up-to-date copy and
// since when.
type GlobalArray struct {
	grcuda.ArrayMeta
	// Buf is the controller's host copy (nil in cost-only mode).
	Buf *kernels.Buffer
	// upToDate[n] holds the virtual time the copy on node n became
	// valid; a node absent from the map is stale. It is the
	// authoritative registry, written as CEs actually dispatch.
	upToDate map[cluster.NodeID]sim.VirtualTime
	// member is the scheduler's membership view of upToDate: the same
	// node set, but updated at scheduling time. It runs ahead of upToDate
	// by the CEs admitted and not yet dispatched, reflecting their
	// post-dispatch locations — exactly the view the next scheduling
	// decision needs. Indexed by NodeID, so the O(workers) scheduling
	// loop reads it without map lookups.
	member []bool
	// gen invalidates est: it advances whenever member changes.
	gen uint64
	// ver is the array's write version on the scheduler's timeline: it
	// advances when a writing CE is admitted (and on HostWrite). cver is
	// the committed version — the version whose locations upToDate
	// records — advancing as writers actually dispatch. Writers of one
	// array are DAG-ordered, so cver trails ver by exactly the in-flight
	// writes. Version 0 is the NewArray state (controller-resident).
	// Lineage recovery (lineage.go) keys producer records by version.
	ver, cver uint64
	// hostVer is the version Buf holds: workers mutate their own copies,
	// so the controller's buffer keeps a host-written (or host-read)
	// version's bytes even after in-place overwrites commit elsewhere.
	// Lineage recovery re-ships it when a chain bottoms out there.
	// Version 0 (the zeroed NewArray state) is the zero value.
	hostVer uint64
	// est caches the per-worker best-source transfer estimates the
	// informed policies consult, indexed by NodeID. The vector is valid
	// while estAgen/estDgen match the array's location generation and
	// the controller's dead-set generation — the only events that can
	// change a best source or its idle-network estimate (bandwidths are
	// fixed at cluster construction).
	est              []sim.VirtualTime
	estAgen, estDgen uint64
	// size caches Bytes() for the scheduling hot path.
	size memmodel.Bytes
}

// isMember reports whether n is in the membership view.
func (g *GlobalArray) isMember(n cluster.NodeID) bool {
	return int(n) < len(g.member) && g.member[n]
}

// addMember puts n in the membership view and reports whether it was new.
func (g *GlobalArray) addMember(n cluster.NodeID) bool {
	if int(n) >= len(g.member) {
		grown := make([]bool, int(n)+1)
		copy(grown, g.member)
		g.member = grown
	}
	added := !g.member[n]
	g.member[n] = true
	return added
}

// dropMember takes n out of the membership view and reports whether it
// was there.
func (g *GlobalArray) dropMember(n cluster.NodeID) bool {
	if !g.isMember(n) {
		return false
	}
	g.member[n] = false
	return true
}

// clearMembers empties the membership view.
func (g *GlobalArray) clearMembers() { clear(g.member) }

// hasMembers reports whether any node is in the membership view.
func (g *GlobalArray) hasMembers() bool {
	for _, in := range g.member {
		if in {
			return true
		}
	}
	return false
}

// UpToDateOn reports whether node n holds a valid copy (scheduler view).
func (g *GlobalArray) UpToDateOn(n cluster.NodeID) bool { return g.isMember(n) }

// Locations lists the nodes holding valid copies, in node-ID order.
func (g *GlobalArray) Locations() []cluster.NodeID {
	var out []cluster.NodeID
	for n, in := range g.member {
		if in {
			out = append(out, cluster.NodeID(n))
		}
	}
	return out
}

// CETrace records one scheduled CE for reports and tests.
type CETrace struct {
	CE          dag.CEID
	Label       string
	Node        cluster.NodeID
	Start       sim.VirtualTime
	End         sim.VirtualTime
	MovedBytes  memmodel.Bytes
	P2PMoves    int
	SchedOverhd time.Duration // wall-clock controller scheduling cost
}

// Options configures a Controller. The dispatch engine's depth is the
// constant pipelineDepth, 64 (pipeline.go), and every worker of the fabric
// starts as a scheduling member: RetireWorker and AddWorker change the
// membership of a running controller (elastic.go).
type Options struct {
	// Numeric allocates controller-side buffers and ships real data.
	Numeric bool
	// Registry is the kernel registry; defaults to kernels.StdRegistry.
	Registry *kernels.Registry
	// Failover makes the Controller survive worker failures: a CE whose
	// worker errors is marked against that worker and rescheduled on the
	// survivors, re-shipping inputs from a live source. Arrays whose only
	// valid copy died are recomputed from lineage — the recorded producer
	// chain re-executes on the survivors (lineage.go) — and only surface
	// ErrDataLost when the chain bottoms out in an unrecoverable root.
	Failover bool
	// Retry bounds in-place retries of transient dispatch failures
	// (timeouts, severed connections) before the failover machinery
	// writes the worker off. The zero value disables retries.
	Retry RetryPolicy
	// Deprecated: ignored; every controller pipelines. Submit admits CEs
	// and returns, Launch waits, and who works through the dispatch FIFO
	// follows from that (pipeline.go).
	Pipeline bool
	// Deprecated: ignored; every CE is admitted by itself (admit.go).
	OptimizeWindow int

	// depth replaces pipelineDepth when positive: a test seam for the
	// tests that need the bound small.
	depth int
}

// traceRing is how many per-CE trace entries a controller keeps: Traces,
// WriteChromeTrace and WriteGantt show the most recent traceRing CEs.
// Totals (Elapsed, MovedBytes, scheduling overhead) are separate counters
// and cover the whole run.
const traceRing = 4096

// ceState is the controller's record of one CE, hung on the CE's Payload so
// that it lives exactly as long as the CE's Global-DAG vertex. Guarded by
// mu.
type ceState struct {
	// end is the CE's completion time, final once done is set: the CE
	// committed, or failed terminally (end 0) so dependents stop waiting.
	end  sim.VirtualTime
	done bool
}

func stateOf(ce *dag.CE) *ceState { return ce.Payload.(*ceState) }

// RetryPolicy shapes transient-failure retries: exponential backoff,
// capped at maxRetryBackoff.
type RetryPolicy struct {
	// Attempts is how many times a transiently failing operation retries
	// in place before failover takes over (0 disables retries).
	Attempts int
	// Backoff is the first retry's delay; each further retry doubles it.
	// Defaults to 50ms when Attempts > 0.
	Backoff time.Duration
}

// maxRetryBackoff caps RetryPolicy's doubling.
const maxRetryBackoff = 2 * time.Second

// delay computes the backoff before retry attempt n (1-based).
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	for i := 1; i < n && d < maxRetryBackoff; i++ {
		d *= 2
	}
	return min(d, maxRetryBackoff)
}

// Controller is GrOUT's front end: the component user programs talk to.
//
// Concurrency contract: every submission-side method (Submit, Launch,
// NewArray, FreeArray, HostRead, HostWrite, BuildKernel, SetPolicy, and
// the drained metric readers Elapsed/MovedBytes/P2PMoves/Traces) is safe
// to call from multiple goroutines — they serialize on subMu, so
// interleaved submissions from concurrent clients observe a single total
// submission order (the order that defines the schedule). Dispatch-side
// state is guarded separately by mu: the dispatch stage — run by whoever
// waits for the queued CEs (a Launch, a drain, Pending.Wait) or by the
// controller's one dispatcher goroutine, which Close stops — runs
// concurrently behind the submission lock.
// Synchronizing operations (HostRead, HostWrite, FreeArray, SetPolicy,
// BuildKernel, Drain and the drained readers) drain the pipeline under
// subMu and therefore act as global barriers across all submitting
// goroutines; a submitter that wants to wait for its own CEs only waits on
// their Pendings, as ControllerSession.Elapsed does.
// TestConcurrentSubmitters exercises this contract under the race
// detector.
type Controller struct {
	fabric   Fabric
	pol      policy.Policy
	reg      *kernels.Registry
	numeric  bool
	failover bool

	graph   *dag.Graph
	arrays  map[dag.ArrayID]*GlobalArray
	nextArr dag.ArrayID

	// lineage maps (array, version) to the producer record that can
	// recompute it (failover mode only; see lineage.go). Guarded by mu.
	lineage map[lineageKey]*producerRec
	// recMu serializes recoveries: concurrent dispatchers hitting the
	// same loss queue here, and the second one finds the data restored.
	recMu sync.Mutex

	// retry is the transient-failure retry policy.
	retry RetryPolicy

	// subMu serializes the submission side: Submit/Launch admissions,
	// array allocation and release, host reads/writes, policy swaps and
	// kernel builds. It establishes the total submission order the
	// schedule is defined by. Lock order: subMu, then pipeline.work, then
	// mu; the dispatch side never takes subMu.
	subMu sync.Mutex

	// mu guards the dispatch-shared state below (every CE's ceState, array
	// registry times, totals, traces, dead set, policy, the arrays map).
	// cond is broadcast whenever a started launch is answered
	// (pipeline.launchDone): the depth bound and quiesce wait on it.
	mu   sync.Mutex
	cond *sync.Cond

	// finished lists the CEs completed since the submission side last
	// looked. A commit runs under mu alone and the graph belongs to subMu,
	// so it cannot retire anything itself: it queues the CE here and
	// retireLocked hands the batch to the graph.
	finished []*dag.CE
	// liveCEs mirrors graph.Live() as of the last retireLocked, for
	// readers that must not wait for subMu (/metrics).
	liveCEs atomic.Int64
	traces  ring.Ring[CETrace]
	elapsed sim.VirtualTime

	// dead records workers the controller has written off (Failover);
	// deadGen advances on every change, invalidating estimate caches.
	dead    map[cluster.NodeID]bool
	deadGen uint64
	// roster is the elastic membership overlay: the subset of fabric
	// workers the controller currently schedules on (elastic.go). nil
	// means every fabric worker is a member. Guarded by mu; deadGen
	// advances on every roster change too, since membership edits
	// invalidate the same caches a death does.
	roster map[cluster.NodeID]bool
	// alive caches the live worker list; nil means rebuild.
	alive []cluster.NodeID
	// memberLen is a new array's membership length: one past the highest
	// node ID of the fleet at construction, so the view need not grow.
	memberLen int

	// reqNodes is the reusable buildRequest scratch buffer. Policies may
	// not retain Request.Nodes past Assign.
	reqNodes []policy.NodeInfo
	// estScratch is the reusable per-source buffer of refreshEst.
	estScratch []sim.VirtualTime
	// metasBuf is validate's argument-metadata scratch (kernel Access
	// hooks must not retain it).
	metasBuf []kernels.ArgMeta
	// dagAccs is admitCE's access-list scratch (the graph copies it).
	dagAccs []dag.Access

	// pipe is the dispatch engine (pipeline.go).
	pipe *pipeline

	// stallPred caches the fabric's optional oversubscription predictor;
	// nil when the fabric cannot see into worker memory (TCP transport),
	// which degrades stall-aware policies to transfer-time ranking.
	stallPred StallPredictor

	// totals
	movedBytes memmodel.Bytes
	p2pMoves   int
	schedTime  time.Duration
	schedCEs   int
	failovers  int
	// recoveries counts arrays recomputed from lineage; recoveryTime is
	// the wall clock spent doing it (the groutbench recovery column).
	recoveries   int
	recoveryTime time.Duration
}

// NewController builds a controller over a fabric with an inter-node
// policy.
func NewController(fabric Fabric, pol policy.Policy, opts Options) *Controller {
	reg := opts.Registry
	if reg == nil {
		reg = kernels.StdRegistry()
	}
	c := &Controller{
		fabric:   fabric,
		pol:      pol,
		reg:      reg,
		numeric:  opts.Numeric,
		failover: opts.Failover,
		graph:    dag.New(),
		arrays:   make(map[dag.ArrayID]*GlobalArray),
		nextArr:  1,
		traces:   ring.New[CETrace](traceRing),
		dead:     make(map[cluster.NodeID]bool),
		deadGen:  1,
		retry:    opts.Retry,
	}
	if opts.Failover {
		c.lineage = make(map[lineageKey]*producerRec)
	}
	c.memberLen = int(cluster.ControllerID) + 1
	for _, w := range fabric.Workers() {
		c.memberLen = max(c.memberLen, int(w)+1)
	}
	c.stallPred, _ = fabric.(StallPredictor)
	c.cond = sync.NewCond(&c.mu)
	c.pipe = newPipeline(c, opts.depth)
	return c
}

// Close drains, stops the dispatcher and reports the first terminal error,
// if any. Later submissions fail. Idempotent.
func (c *Controller) Close() error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	err := c.drainLocked()
	c.pipe.close()
	return err
}

// Drain waits until every submitted CE has dispatched and reports the first
// terminal error, if any.
func (c *Controller) Drain() error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.drainLocked()
}

// aliveWorkers returns the live worker list, maintained incrementally:
// the fabric's worker set is fixed, so the list only changes when a
// worker is written off or the elastic roster changes (AddWorker /
// RetireWorker in elastic.go).
func (c *Controller) aliveWorkers() []cluster.NodeID {
	if c.alive == nil {
		all := c.fabric.Workers()
		alive := make([]cluster.NodeID, 0, len(all))
		for _, w := range all {
			if c.dead[w] || (c.roster != nil && !c.roster[w]) {
				continue
			}
			alive = append(alive, w)
		}
		c.alive = alive
	}
	return c.alive
}

// markDead writes a worker off: it disappears from scheduling candidates
// and from every array's valid-location set. Caller holds mu.
func (c *Controller) markDead(w cluster.NodeID) {
	if c.dead[w] {
		return
	}
	c.dead[w] = true
	c.deadGen++
	c.alive = nil
	c.failovers++
	for _, arr := range c.arrays {
		delete(arr.upToDate, w)
		if arr.dropMember(w) {
			arr.gen++
		}
	}
}

// Failovers reports how many workers the controller has written off.
// markDead mutates the counter under mu from dispatcher goroutines, so
// the read takes the lock too.
func (c *Controller) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Recoveries reports how many arrays lineage recovery has recomputed.
func (c *Controller) Recoveries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveries
}

// RecoveryTime reports the wall clock spent in lineage recovery.
func (c *Controller) RecoveryTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recoveryTime
}

// DeadWorkers lists written-off workers.
func (c *Controller) DeadWorkers() []cluster.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cluster.NodeID, 0, len(c.dead))
	for w := range c.dead {
		out = append(out, w)
	}
	return out
}

// Policy returns the active inter-node policy.
func (c *Controller) Policy() policy.Policy { return c.pol }

// DispatcherJobs counts the CEs the dispatcher goroutine worked through:
// on a streaming fabric those their submitter could not start itself, on a
// fabric without AsyncLauncher those queued when an observer (Done,
// OnDone) woke it.
func (c *Controller) DispatcherJobs() int { return int(c.pipe.handed.Load()) }

// SetPolicy swaps the inter-node policy (between workloads). It drains
// the pipeline, so no in-flight CE sees the swap.
func (c *Controller) SetPolicy(p policy.Policy) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	c.mu.Lock()
	c.pol = p
	c.mu.Unlock()
}

// Graph exposes the Global DAG. It belongs to the submission side: read it
// between submissions (tests, reports), not beside them.
func (c *Controller) Graph() *dag.Graph { return c.graph }

// LiveCEs reports how many CEs the Global DAG held at the last admission or
// synchronising point (dag.Graph.Live) — the quantity that must stay flat
// under an endless stream. Safe from any goroutine; never blocks.
func (c *Controller) LiveCEs() int { return int(c.liveCEs.Load()) }

// Registry exposes the kernel registry.
func (c *Controller) Registry() *kernels.Registry { return c.reg }

// Traces returns the per-CE schedule trace: the most recent traceRing
// (4096) CEs, oldest first, as a copy.
func (c *Controller) Traces() []CETrace {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	return c.traces.Slice()
}

// advanceClock moves the fleet clock to t if t is later. A host op owns
// the drained controller under subMu, but ControllerSession.Elapsed reads
// the clock under mu alone, so the clock is written under mu.
func (c *Controller) advanceClock(t sim.VirtualTime) {
	c.mu.Lock()
	if t > c.elapsed {
		c.elapsed = t
	}
	c.mu.Unlock()
}

// Elapsed reports the workload makespan in virtual time.
func (c *Controller) Elapsed() sim.VirtualTime {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	return c.elapsed
}

// MovedBytes reports total bytes shipped over the network.
func (c *Controller) MovedBytes() memmodel.Bytes {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	return c.movedBytes
}

// P2PMoves reports how many worker-to-worker transfers were issued.
func (c *Controller) P2PMoves() int {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	return c.p2pMoves
}

// MeanSchedulingOverhead reports the mean wall-clock time the Controller
// spent deciding placement per CE — the quantity of the paper's Figure 9.
func (c *Controller) MeanSchedulingOverhead() time.Duration {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.schedCEs == 0 {
		return 0
	}
	return c.schedTime / time.Duration(c.schedCEs)
}

// NewArray allocates a global array, initially up to date on the
// controller only (time 0).
func (c *Controller) NewArray(kind memmodel.ElemKind, n int64) (*GlobalArray, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("core: invalid element kind %d", int(kind))
	}
	// The upper bound rejects lengths whose byte size would overflow
	// int64 (Size is a power of two, so the division is exact); without
	// it a huge n slips past byte-based quota checks and panics make.
	if n <= 0 || n > math.MaxInt64/int64(kind.Size()) {
		return nil, fmt.Errorf("core: invalid array length %d", n)
	}
	c.subMu.Lock()
	defer c.subMu.Unlock()
	id := c.nextArr
	c.nextArr++
	arr := &GlobalArray{
		ArrayMeta: grcuda.ArrayMeta{ID: id, Kind: kind, Len: n},
		upToDate:  map[cluster.NodeID]sim.VirtualTime{cluster.ControllerID: 0},
		member:    make([]bool, c.memberLen),
		gen:       1,
	}
	arr.addMember(cluster.ControllerID)
	arr.size = arr.Bytes()
	if c.numeric {
		arr.Buf = kernels.NewBuffer(kind, int(n))
	}
	// The map write takes mu too: dispatch-side readers (commit,
	// markDead, lineage) hold mu but not subMu.
	c.mu.Lock()
	c.arrays[id] = arr
	c.mu.Unlock()
	return arr, nil
}

// Array returns a global array by ID, or nil. Safe from any goroutine.
func (c *Controller) Array(id dag.ArrayID) *GlobalArray {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arrays[id]
}

// FreeArray releases a global array everywhere. Like HostRead/HostWrite
// it drains the dispatch pipeline first.
func (c *Controller) FreeArray(id dag.ArrayID) error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	c.drainLocked()
	c.mu.Lock()
	_, ok := c.arrays[id]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: free of unknown array %d", id)
	}
	for _, w := range c.fabric.Workers() {
		if err := c.fabric.FreeArray(w, id); err != nil {
			return err
		}
	}
	c.mu.Lock()
	delete(c.arrays, id)
	// Array IDs are never reused and validate refuses unknown ones, so no
	// later CE can name the array: its last writer and readers leave the
	// frontier instead of staying on it for the life of the process.
	c.graph.DropArray(id)
	c.retireLocked()
	c.mu.Unlock()
	return nil
}

// refreshEst recomputes an array's per-worker transfer-estimate vector:
// for every worker w, the idle-network time to pull the array from its
// best live source (workers preferred over the controller, fastest link
// within a class — bestSource's rule). The vector is then served from
// cache until the array's location set or the dead set changes.
func (c *Controller) refreshEst(arr *GlobalArray, workers []cluster.NodeID) {
	maxID := 0
	for _, w := range workers {
		if int(w) > maxID {
			maxID = int(w)
		}
	}
	if len(arr.est) < maxID+1 {
		arr.est = make([]sim.VirtualTime, maxID+1)
	}
	est := arr.est
	for i := range est {
		est[i] = sim.Infinity
	}
	if cap(c.estScratch) < maxID+1 {
		c.estScratch = make([]sim.VirtualTime, maxID+1)
	}
	scratch := c.estScratch[:maxID+1]

	merge := func(src cluster.NodeID) {
		EstimateTransferAll(c.fabric, src, arr.size, workers, scratch)
		for _, w := range workers {
			if scratch[w] < est[w] {
				est[w] = scratch[w]
			}
		}
	}
	// Worker sources shadow the controller (P2P preference): only fall
	// back to controller/no-source estimates for workers no live worker
	// source can serve — with a single shared vector that means "when
	// there are no worker sources at all", which matches bestSource since
	// source sets don't vary per target (only the target itself is
	// excluded, and a target that is its own source is already handled by
	// the UpToDate branch).
	haveWorkerSrc := false
	for i, in := range arr.member {
		if n := cluster.NodeID(i); in && n.IsWorker() && !c.dead[n] {
			haveWorkerSrc = true
			merge(n)
		}
	}
	if !haveWorkerSrc {
		// Controller source, or — with no live copy anywhere — the
		// controller link as a placeholder (the policy's view only; the
		// dispatch stage surfaces data loss).
		merge(cluster.ControllerID)
	}
	arr.estAgen, arr.estDgen = arr.gen, c.deadGen
}

// scheduled is the outcome of the timed scheduling section: everything
// the dispatch stage needs to move data and launch the CE.
type scheduled struct {
	ce        *dag.CE
	ancestors []*dag.Vertex // read-only view owned by the DAG
	inv       Invocation
	accs      []memmodel.Access
	target    cluster.NodeID
	// outVers[j] is the version recordLineage assigned to the j-th
	// written array argument; commit publishes these as cver so aborted
	// CEs (which bump ver but never commit) cannot desynchronize the
	// committed version from the lineage index.
	outVers  []uint64
	schedDur time.Duration
	// arrs[i] is the resolved GlobalArray of array argument i (nil for
	// scalars), captured at admission under mu so the dispatch stage
	// never reads the arrays map unlocked.
	arrs []*GlobalArray
}

// validate checks an invocation against the kernel registry and returns
// its argument accesses.
func (c *Controller) validate(inv Invocation) ([]memmodel.Access, error) {
	def, ok := c.reg.Lookup(inv.Kernel)
	if !ok {
		return nil, fmt.Errorf("core: unknown kernel %q", inv.Kernel)
	}
	if len(inv.Args) != len(def.Sig.Params) {
		return nil, fmt.Errorf("core: %s wants %d arguments, got %d",
			inv.Kernel, len(def.Sig.Params), len(inv.Args))
	}
	if cap(c.metasBuf) < len(inv.Args) {
		c.metasBuf = make([]kernels.ArgMeta, len(inv.Args))
	}
	metas := c.metasBuf[:len(inv.Args)]
	for i, a := range inv.Args {
		if a.IsArray {
			if !def.Sig.Params[i].Pointer {
				return nil, fmt.Errorf("core: %s argument %d must be a scalar", inv.Kernel, i)
			}
			arr, ok := c.arrays[a.Array]
			if !ok {
				return nil, fmt.Errorf("core: %s references unknown array %d", inv.Kernel, a.Array)
			}
			metas[i] = kernels.ArgMeta{IsBuffer: true, Len: arr.Len}
		} else {
			if def.Sig.Params[i].Pointer {
				return nil, fmt.Errorf("core: %s argument %d must be an array", inv.Kernel, i)
			}
			metas[i] = kernels.ArgMeta{Scalar: a.Scalar}
		}
	}
	return def.Access(metas), nil
}

// skipOldBytes reports whether argument i's old contents never move: a
// write-only full overwrite.
func skipOldBytes(accs []memmodel.Access, i int) bool {
	return accs[i].Mode == memmodel.Write && accs[i].Fraction >= 1
}

// admitCE enters a kernel CE into the Global DAG and returns it with its
// ancestors. Caller holds subMu and mu.
func (c *Controller) admitCE(inv Invocation, accs []memmodel.Access) (*dag.CE, []*dag.Vertex) {
	c.dagAccs = c.dagAccs[:0]
	for i, a := range inv.Args {
		if a.IsArray {
			c.dagAccs = append(c.dagAccs, dag.Access{Array: a.Array, Mode: accs[i].Mode})
		}
	}
	return c.addCE(inv.Kernel, c.dagAccs)
}

// addCE is the one way a CE enters the Global DAG: it first hands the graph
// the CEs finished since the last admission (amortised O(1) per CE — the
// whole of retirement's submission-side cost), then adds the new CE with a
// fresh ceState. Caller holds subMu, and mu unless the pipeline is drained.
func (c *Controller) addCE(label string, accs []dag.Access) (*dag.CE, []*dag.Vertex) {
	c.retireLocked()
	ce := c.graph.NewCE(label, accs, nil)
	dag.Record[ceState](ce)
	return ce, c.graph.Add(ce)
}

// finishLocked publishes a CE's end time to its dependents and queues the
// CE for the graph. Caller holds mu.
func (c *Controller) finishLocked(ce *dag.CE, end sim.VirtualTime) {
	st := stateOf(ce)
	st.end, st.done = end, true
	c.finished = append(c.finished, ce)
}

// retireLocked reports every finished CE to the graph, which retires what
// nothing can depend on any more. Caller holds subMu (the graph's lock) and
// mu (the queue's), or subMu with the pipeline drained.
func (c *Controller) retireLocked() {
	for i, ce := range c.finished {
		c.graph.Complete(ce)
		c.finished[i] = nil
	}
	c.finished = c.finished[:0]
	c.liveCEs.Store(int64(c.graph.Live()))
}

// sweepLocked is retireLocked at a synchronising point (a drain, Close),
// where no admission is about to do it. Caller holds subMu.
func (c *Controller) sweepLocked() {
	c.mu.Lock()
	c.retireLocked()
	c.mu.Unlock()
}

// predictMembership applies the CE's effect on the data-location
// membership view at admission time: moved arrays gain the target, written
// arrays collapse to it. This is what keeps scheduling decisions the same
// however far dispatch lags behind.
func (c *Controller) predictMembership(s *scheduled) {
	if cap(s.arrs) < len(s.inv.Args) {
		s.arrs = make([]*GlobalArray, len(s.inv.Args))
	}
	// Only array-argument slots are written and read; stale scratch in
	// scalar slots is never consulted.
	s.arrs = s.arrs[:len(s.inv.Args)]
	for i, a := range s.inv.Args {
		if !a.IsArray {
			s.arrs[i] = nil
			continue
		}
		arr := c.arrays[a.Array]
		s.arrs[i] = arr
		if !arr.isMember(s.target) && !skipOldBytes(s.accs, i) {
			arr.addMember(s.target)
			arr.gen++
		}
	}
	for i, a := range s.inv.Args {
		if a.IsArray && s.accs[i].Mode.Writes() {
			arr := c.arrays[a.Array]
			arr.clearMembers()
			arr.addMember(s.target)
			arr.gen++
		}
	}
}

// Launch submits a kernel CE and waits for it: paper Algorithm 1. The CE
// enters the Global DAG, the policy picks a Worker, the minimal data
// movements are issued (controller→worker or P2P), and the CE is forwarded
// to the Worker's intra-node scheduler. Returns the CE's completion time.
//
// Launch is a synchronous call: it works the CE through on its own
// goroutine — on a fabric without a launch stream after every CE queued
// before it, on a streaming one when nothing is queued. Use Submit not to
// wait for it.
func (c *Controller) Launch(inv Invocation) (sim.VirtualTime, error) {
	c.subMu.Lock()
	p, err := c.admitLocked(inv, true)
	c.subMu.Unlock()
	if err != nil {
		return 0, err
	}
	return p.Wait()
}

// Submit admits a kernel CE and hands it to the dispatch engine
// (pipeline.go). It returns as soon as that is done: on a streaming fabric
// having started the CE if it could start at once, on any other having
// queued it — and worked the run through if that filled the run queue.
// Validation errors surface here; dispatch errors surface on the returned
// Pending (and on Drain).
func (c *Controller) Submit(inv Invocation) (*Pending, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.admitLocked(inv, false)
}

// Pending is a submitted CE whose dispatch may still be in flight.
//
// Who resolves it depends on the fabric (pipeline.go). On a streaming
// fabric the dispatcher goroutine, a fabric reader or the submitter that
// started it does, whether anyone looks or not. On a fabric without a
// launch stream a queued CE waits for someone to work through the run:
// Wait does it on the caller's goroutine, and Done and OnDone wake the
// dispatcher goroutine to do it.
type Pending struct {
	end sim.VirtualTime
	err error
	// pl is the engine whose run queue holds the CE until a caller works
	// through it: set at admission on a fabric without a launch stream,
	// nil otherwise.
	pl *pipeline
	// mu guards resolved, hooks and done (OnDone, Wait and Done may race
	// resolve). done is made by the first Wait or Done that finds the CE
	// unresolved: most CEs are never waited on one by one, and they cost
	// no channel.
	mu       sync.Mutex
	resolved bool
	hooks    []func(sim.VirtualTime, error)
	done     chan struct{}
}

// closedDone is what Done returns for a resolved Pending.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// resolve is the one way a Pending completes: it records the outcome, runs
// the OnDone hooks on the calling goroutine, then releases the waiters —
// so whoever returns from Wait finds every hook's effect in place. A hook
// registered while the hooks run joins them.
func (p *Pending) resolve(end sim.VirtualTime, err error) {
	p.mu.Lock()
	p.end, p.err = end, err
	for len(p.hooks) > 0 {
		hooks := p.hooks
		p.hooks = nil
		p.mu.Unlock()
		for _, fn := range hooks {
			fn(end, err)
		}
		p.mu.Lock()
	}
	p.resolved = true
	done := p.done
	p.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// isResolved reports whether the CE has resolved.
func (p *Pending) isResolved() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resolved
}

// observed wakes the dispatcher goroutine for a CE that waits in a run
// queue: someone watches it without working through the run.
func (p *Pending) observed() {
	if p.pl != nil {
		p.pl.kick()
	}
}

// OnDone registers fn to run with the CE's outcome when it resolves — on
// the resolving goroutine (whoever works through its run, or a fabric
// reader), or at once on the caller's if it already has. Registering on an
// unresolved CE wakes the dispatcher goroutine if the CE waits in a run
// queue, so it resolves without anyone waiting. fn must not block.
func (p *Pending) OnDone(fn func(end sim.VirtualTime, err error)) {
	p.mu.Lock()
	if !p.resolved {
		p.hooks = append(p.hooks, fn)
		p.mu.Unlock()
		p.observed()
		return
	}
	end, err := p.end, p.err
	p.mu.Unlock()
	fn(end, err)
}

// Wait blocks until the CE has dispatched and returns its completion time.
// If the CE waits in a run queue, the caller works through the run up to
// it.
func (p *Pending) Wait() (sim.VirtualTime, error) {
	if p.pl != nil && !p.isResolved() {
		p.pl.workThrough(p)
	}
	p.mu.Lock()
	if p.resolved {
		end, err := p.end, p.err
		p.mu.Unlock()
		return end, err
	}
	done := p.waitChanLocked()
	p.mu.Unlock()
	<-done
	return p.end, p.err // written before done was closed
}

// Done returns a channel closed when the CE has dispatched. Asking for it
// on an unresolved CE wakes the dispatcher goroutine if the CE waits in a
// run queue, as OnDone does.
func (p *Pending) Done() <-chan struct{} {
	p.mu.Lock()
	if p.resolved {
		p.mu.Unlock()
		return closedDone
	}
	done := p.waitChanLocked()
	p.mu.Unlock()
	p.observed()
	return done
}

// waitChanLocked returns the channel resolve closes, making it on first
// use. Caller holds mu and has seen the Pending unresolved.
func (p *Pending) waitChanLocked() chan struct{} {
	if p.done == nil {
		p.done = make(chan struct{})
	}
	return p.done
}

// dispatch runs the untimed half of Algorithm 1 for a scheduled CE: issue
// the data movements, forward the CE, and commit the results. Its one
// caller (pipeline.runJob) has quiesced, so every earlier CE has committed
// or failed and nothing here waits for another CE. Under Failover a failing
// worker is written off and the CE rescheduled on survivors.
func (c *Controller) dispatch(s *scheduled) (sim.VirtualTime, error) {
	depReady := c.depReady(s)

	target := s.target
	var end, ready sim.VirtualTime
	var moved memmodel.Bytes
	var p2p int
	retries, recoveries := 0, 0
	for {
		// A job scheduled before a failover may carry a target that has
		// since been written off; reassign before touching the fabric.
		c.mu.Lock()
		if c.dead[target] {
			if len(c.aliveWorkers()) == 0 {
				c.mu.Unlock()
				c.commitError(s)
				return 0, fmt.Errorf("core: no workers left after failover")
			}
			req := c.buildRequest(s.ce, s.inv.Args, s.accs)
			target = c.pol.Assign(req)
		}
		c.mu.Unlock()

		transferReady, m, p, err := c.ensureArgs(target, s)
		if err == nil {
			ready = sim.Max(depReady, transferReady)
			moved, p2p = m, p
			end, err = c.fabric.Launch(target, s.inv, ready)
		}
		if err == nil {
			break
		}
		// Transient failures (timeouts, severed connections) retry in
		// place with capped backoff before anyone is written off: a
		// momentary stall should not cost a worker its replicas.
		if retries < c.retry.Attempts && IsTransient(err) {
			retries++
			time.Sleep(c.retry.delay(retries))
			continue
		}
		if errorIsDataLoss(err) {
			// Every live copy of an input died. Re-execute its recorded
			// producer chain on the survivors (lineage.go), then retry
			// the dispatch against the recovered registry. Bounded, in
			// case the recovery target itself keeps dying.
			if c.failover && recoveries < maxRecoveryRounds {
				recoveries++
				if rerr := c.recoverLoss(err); rerr == nil {
					continue
				} else {
					err = rerr
				}
			}
			c.commitError(s)
			return 0, err
		}
		if !c.failover {
			c.commitError(s)
			return 0, err
		}
		// Identify which worker actually died (the error may come from
		// the CE's target or from a transfer source) and write it off.
		c.mu.Lock()
		anyDead := false
		for _, w := range c.aliveWorkers() {
			if !c.fabric.Healthy(w) {
				c.markDead(w)
				anyDead = true
			}
		}
		if !anyDead && !c.dead[target] {
			c.mu.Unlock()
			c.commitError(s)
			return 0, err // not a worker failure; don't spin
		}
		if len(c.aliveWorkers()) == 0 {
			c.mu.Unlock()
			c.commitError(s)
			return 0, fmt.Errorf("core: no workers left after failover: %w", err)
		}
		// Reschedule on the survivors, from the authoritative registry.
		req := c.buildRequest(s.ce, s.inv.Args, s.accs)
		target = c.pol.Assign(req)
		c.mu.Unlock()
	}

	c.mu.Lock()
	c.commitLocked(s, target, ready, end, moved, p2p)
	c.mu.Unlock()
	return end, nil
}

// maxRecoveryRounds bounds lineage-recovery attempts per dispatched CE:
// each round can only fail by losing another worker mid-recovery.
const maxRecoveryRounds = 3

// commitLocked publishes a dispatched CE's results. Caller holds mu.
func (c *Controller) commitLocked(s *scheduled, target cluster.NodeID, ready, end sim.VirtualTime, moved memmodel.Bytes, p2p int) {
	// Update the data-location registry.
	outIdx := 0
	for i, a := range s.inv.Args {
		if !a.IsArray {
			continue
		}
		arr := c.arrays[a.Array]
		if s.accs[i].Mode.Writes() {
			// The writer's copy is now the only valid one. Only the
			// authoritative view changes here: the membership view already
			// collapsed to the scheduled target in predictMembership, and
			// later CEs' predictions may have advanced it further — commit
			// must not rewind them. (After a failover reschedule the views
			// can drift conservatively; registerCopy and the dead checks
			// keep dispatch correct regardless.)
			clear(arr.upToDate)
			arr.upToDate[target] = end
			// The registry now describes the version recordLineage
			// assigned this CE at admission. Writers of one array commit
			// in submission order (WAW dependencies serialize their
			// dispatch), so cver moves monotonically — but via the
			// recorded value, not an increment, because an aborted writer
			// consumes a version number without ever committing it.
			if outIdx < len(s.outVers) {
				arr.cver = s.outVers[outIdx]
			}
			outIdx++
		} else {
			c.registerCopy(arr, target, end, false)
		}
	}

	c.finishLocked(s.ce, end)
	if end > c.elapsed {
		c.elapsed = end
	}
	c.movedBytes += moved
	c.p2pMoves += p2p
	c.traces.Push(CETrace{
		CE: s.ce.ID, Label: s.inv.Kernel, Node: target,
		Start: ready, End: end, MovedBytes: moved, P2PMoves: p2p,
		SchedOverhd: s.schedDur,
	})
}

// commitError records a terminally failed CE as finished, with end time 0,
// so its dependents find it done and the graph can retire it (the error
// itself travels on the Pending and, when it sticks, in pipeline.err).
func (c *Controller) commitError(s *scheduled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !stateOf(s.ce).done {
		c.finishLocked(s.ce, 0)
	}
}

// registerCopy records in the authoritative view that node holds a valid
// copy since t. Caller holds mu. overwrite resets the time even if the
// node is already registered. The membership view is deliberately left
// alone: it belongs to the scheduler's timeline (predictMembership,
// HostRead/HostWrite, markDead) — a dispatch-time add could resurrect a
// member that a later CE's schedule-time write collapse already removed.
func (c *Controller) registerCopy(arr *GlobalArray, node cluster.NodeID, t sim.VirtualTime, overwrite bool) {
	if _, ok := arr.upToDate[node]; !ok || overwrite {
		arr.upToDate[node] = t
	}
}

// depReady returns the latest end time among the CE's DAG ancestors. They
// are all finished: ancestors were submitted earlier, dispatch runs after
// quiesce, and a host CE finishes inside the call that makes it.
func (c *Controller) depReady(s *scheduled) sim.VirtualTime {
	depReady := sim.VirtualTime(0)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range s.ancestors {
		st := stateOf(a.CE)
		if !st.done {
			panic(fmt.Sprintf("core: CE %d dispatched before its ancestor CE %d finished", s.ce.ID, a.CE.ID))
		}
		if st.end > depReady {
			depReady = st.end
		}
	}
	return depReady
}

// streamableLocked reports whether s can be started on its target's
// control stream right now, without waiting for anything (pipeline.go's
// streamed dispatch): the target is alive, every DAG ancestor has
// committed or is itself started on the same target and not yet answered
// (inflight — the worker runs its channel in order, so it runs first),
// and the registry holds a copy of every array argument on the target.
// Caller holds mu.
//
// Why that is enough: the registry describes the last committed version.
// An uncommitted writer of an argument is a RAW/WAW ancestor, so it is
// either ahead of s on this worker's channel (its commit re-registers the
// target) or on another worker, which fails the ancestor test; an
// uncommitted reader elsewhere is a WAR ancestor and fails it too.
func (c *Controller) streamableLocked(s *scheduled, inflight map[dag.CEID]cluster.NodeID) bool {
	if c.dead[s.target] {
		return false
	}
	for _, a := range s.ancestors {
		if stateOf(a.CE).done {
			continue
		}
		if w, ok := inflight[a.CE.ID]; !ok || w != s.target {
			return false
		}
	}
	for i, a := range s.inv.Args {
		if !a.IsArray {
			continue
		}
		if _, up := s.arrs[i].upToDate[s.target]; !up {
			return false
		}
	}
	return true
}

// streamedReadyLocked computes a streamed CE's start bound when its answer
// arrives — its ancestors' ends and its arguments' copy times, what
// depReady and ensureArgs report on the blocking path. ok is false when an
// ancestor has not committed: it failed ahead of s on the channel, so s
// ran without its effect and must not commit. Caller holds mu.
func (c *Controller) streamedReadyLocked(s *scheduled) (ready sim.VirtualTime, ok bool) {
	for _, a := range s.ancestors {
		st := stateOf(a.CE)
		if !st.done {
			return 0, false
		}
		if st.end > ready {
			ready = st.end
		}
	}
	for i, a := range s.inv.Args {
		if !a.IsArray {
			continue
		}
		if t := s.arrs[i].upToDate[s.target]; t > ready {
			ready = t
		}
	}
	return ready, true
}

// ensureArgs issues the data movements Algorithm 1 requires: every array
// parameter that is not up to date on the target is shipped from its best
// source. Write-only full overwrites skip the transfer but still allocate.
// The registry is final for this CE: every
// earlier CE has committed or failed, so a copy that is absent now — the
// delivery was rerouted by a dead-worker redispatch or lineage recovery —
// never arrives, and a fresh move from the survivors replaces it.
func (c *Controller) ensureArgs(target cluster.NodeID, s *scheduled) (ready sim.VirtualTime, moved memmodel.Bytes, p2p int, err error) {
	for i, a := range s.inv.Args {
		if !a.IsArray {
			continue
		}
		arr := s.arrs[i] // resolved at admission; no unlocked map read
		c.mu.Lock()
		t, up := arr.upToDate[target]
		c.mu.Unlock()
		if up && t > ready {
			ready = t
		}
		if err := c.fabric.EnsureArray(target, arr.ArrayMeta); err != nil {
			return 0, 0, 0, err
		}
		if up || skipOldBytes(s.accs, i) {
			continue // resident, or a full overwrite: old contents don't matter
		}

		c.mu.Lock()
		if len(arr.upToDate) == 0 {
			err := c.lossError(a.Array)
			c.mu.Unlock()
			return 0, 0, 0, err
		}
		src := c.bestSource(arr, target)
		srcReady := arr.upToDate[src]
		c.mu.Unlock()

		arrival, err := c.fabric.MoveArray(a.Array, src, target, srcReady, arr.Buf, nil)
		if err != nil {
			return 0, 0, 0, err
		}

		c.mu.Lock()
		c.registerCopy(arr, target, arrival, true)
		if arrival > c.elapsed {
			c.elapsed = arrival
		}
		c.mu.Unlock()

		moved += arr.size
		if src.IsWorker() {
			p2p++
		}
		if arrival > ready {
			ready = arrival
		}
	}
	return ready, moved, p2p, nil
}

// errDataLoss marks a lost array: the only valid copy died with its
// worker. With failover dispatch tries lineage recovery first; the
// error is terminal only when the producer chain cannot be replayed.
type errDataLoss struct {
	id dag.ArrayID
	// lastCE is the CE that last wrote the array per the Global DAG's
	// lineage index (0 when the array was never kernel-written) — it
	// names the producer a recovery would have had to replay.
	lastCE dag.CEID
}

func (e *errDataLoss) Error() string {
	if e.lastCE != 0 {
		return fmt.Sprintf("core: array %d lost: its only valid copy was on a failed worker (last written by CE %d)", e.id, e.lastCE)
	}
	return fmt.Sprintf("core: array %d lost: its only valid copy was on a failed worker", e.id)
}

// lossError builds the data-loss error for an array, annotated with the
// DAG's last-writer lineage hook.
func (c *Controller) lossError(id dag.ArrayID) error {
	e := &errDataLoss{id: id}
	if w := c.graph.LastWriter(id); w != nil {
		e.lastCE = w.ID
	}
	return e
}

// Unwrap surfaces the ErrDataLost sentinel so callers can errors.Is on it.
func (e *errDataLoss) Unwrap() error { return ErrDataLost }

func errorIsDataLoss(err error) bool {
	var dl *errDataLoss
	return errors.As(err, &dl)
}

// buildRequest assembles the policy's view: per worker, the bytes of the
// CE's parameters already up to date there, the bytes that would move, and
// the estimated transfer time from the interconnection matrix. The
// returned Request reuses the controller's scratch buffer; policies must
// not retain it past Assign. Caller holds mu.
func (c *Controller) buildRequest(ce *dag.CE, args []ArgRef, accs []memmodel.Access) policy.Request {
	workers := c.aliveWorkers()
	if cap(c.reqNodes) < len(workers) {
		c.reqNodes = make([]policy.NodeInfo, len(workers))
	}
	nodes := c.reqNodes[:len(workers)]
	req := policy.Request{CE: ce, Nodes: nodes}
	if !c.pol.NeedsDataView() {
		// Static policies only need the candidate list.
		for wi, w := range workers {
			nodes[wi] = policy.NodeInfo{ID: w}
		}
		return req
	}
	var total memmodel.Bytes
	for i, a := range args {
		if !a.IsArray {
			continue
		}
		// Write-only full overwrites don't need their old bytes moved.
		if skipOldBytes(accs, i) {
			continue
		}
		total += c.arrays[a.Array].size
	}
	req.Total = total
	for wi, w := range workers {
		nodes[wi] = policy.NodeInfo{ID: w}
	}
	for i, a := range args {
		if !a.IsArray || skipOldBytes(accs, i) {
			continue
		}
		arr := c.arrays[a.Array]
		if arr.estAgen != arr.gen || arr.estDgen != c.deadGen {
			c.refreshEst(arr, workers)
		}
		est, member, size := arr.est, arr.member, arr.size
		for wi, w := range workers {
			if int(w) < len(member) && member[w] {
				nodes[wi].UpToDate += size
			} else {
				nodes[wi].Transfer += size
				nodes[wi].TransferTime += est[w]
			}
		}
	}
	for wi := range nodes {
		if nodes[wi].UpToDate > req.MaxUp {
			req.MaxUp = nodes[wi].UpToDate
		}
	}
	c.fillStallView(args, accs, nodes)
	return req
}

// fillStallView adds the predicted-fault-rate cost term to the candidate
// view: per worker, what UVM oversubscription would do to this CE's
// kernel once its data landed there. Only policies that request the view
// (policy.StallAware) pay for the fabric queries, and only on fabrics
// that can see into worker memory (StallPredictor). The working set is
// the CE's full parameter footprint — write-only overwrites skip the data
// move, but their pages still occupy device memory — under the CE's
// worst (least batchable) access pattern. Caller holds mu.
func (c *Controller) fillStallView(args []ArgRef, accs []memmodel.Access, nodes []policy.NodeInfo) {
	if c.stallPred == nil {
		return
	}
	sa, ok := c.pol.(policy.StallAware)
	if !ok || !sa.NeedsStallView() {
		return
	}
	var working memmodel.Bytes
	pattern := memmodel.Sequential
	for i, a := range args {
		if !a.IsArray {
			continue
		}
		working += c.arrays[a.Array].size
		if i < len(accs) && accs[i].Pattern.BatchFactor() < pattern.BatchFactor() {
			pattern = accs[i].Pattern
		}
	}
	if working == 0 {
		return
	}
	for wi := range nodes {
		nodes[wi].PredictedStall = c.stallPred.PredictStall(
			nodes[wi].ID, nodes[wi].Transfer, working, pattern)
	}
}

// bestSource picks where to pull a stale array from: the up-to-date node
// with the fastest link to the target, preferring workers (P2P) over the
// controller when both hold valid copies, as in Algorithm 1. It consults
// the authoritative registry; caller holds mu.
func (c *Controller) bestSource(arr *GlobalArray, target cluster.NodeID) cluster.NodeID {
	best := cluster.ControllerID
	bestTime := sim.Infinity
	haveWorker := false
	for n := range arr.upToDate {
		if n == target || c.dead[n] {
			continue
		}
		est := c.fabric.EstimateTransfer(n, target, arr.size)
		isWorker := n.IsWorker()
		// Prefer P2P sources; among equals, the fastest link, then the
		// lowest ID — the deterministic tie-break keeps the schedule
		// independent of map iteration order.
		better := false
		switch {
		case isWorker && !haveWorker:
			better = true
		case isWorker == haveWorker && (est < bestTime || (est == bestTime && n < best)):
			better = true
		}
		if better {
			best, bestTime, haveWorker = n, est, isWorker
		}
	}
	return best
}

// HostRead makes the controller's copy of an array consistent (the user
// reading results, paper Listing 1's print(x)): a read CE that may pull
// the array back from the worker that last wrote it. It drains the
// dispatch pipeline first: a host read is a synchronization point — a
// global one, barriering every concurrently submitting goroutine.
func (c *Controller) HostRead(id dag.ArrayID) (sim.VirtualTime, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	// After the drain the dispatch side is quiescent and subMu excludes
	// new submissions, so the body below owns every structure it touches.
	if err := c.drainLocked(); err != nil {
		return 0, err
	}
	arr, ok := c.arrays[id]
	if !ok {
		return 0, fmt.Errorf("core: host read of unknown array %d", id)
	}
	ce, depReady := c.addHostCE("host-read", dag.Access{Array: id, Mode: memmodel.Read})
	end := depReady
	if _, up := arr.upToDate[cluster.ControllerID]; !up {
		if len(arr.upToDate) == 0 {
			// Every live copy died with its worker. Recompute the array
			// from its recorded lineage before giving up on the read.
			if !c.failover {
				return 0, c.lossError(id)
			}
			if rerr := c.recoverArrays([]dag.ArrayID{id}); rerr != nil {
				return 0, rerr
			}
		}
		src := c.bestSource(arr, cluster.ControllerID)
		arrival, err := c.fabric.MoveArray(id, src, cluster.ControllerID,
			sim.Max(arr.upToDate[src], depReady), nil, arr.Buf)
		if err != nil {
			return 0, err
		}
		// The pipeline is drained here, so the membership view is in
		// lockstep with the authoritative one and gains the copy too.
		c.registerCopy(arr, cluster.ControllerID, arrival, true)
		arr.hostVer = arr.cver
		if arr.addMember(cluster.ControllerID) {
			arr.gen++
		}
		c.movedBytes += arr.size
		end = arrival
	} else if t := arr.upToDate[cluster.ControllerID]; t > end {
		end = t
	}
	stateOf(ce).end = end
	c.advanceClock(end)
	c.traces.Push(CETrace{CE: ce.ID, Label: "host-read",
		Node: cluster.ControllerID, Start: depReady, End: end})
	return end, nil
}

// addHostCE enters a host read or write into the Global DAG and returns it
// with the latest end time among its ancestors. The pipeline is drained, so
// every ancestor is done; the CE itself is finished at once — a host op
// completes inside the call that makes it, also when that call fails —
// with end depReady until the caller knows better. Caller holds subMu.
func (c *Controller) addHostCE(label string, acc dag.Access) (ce *dag.CE, depReady sim.VirtualTime) {
	c.dagAccs = append(c.dagAccs[:0], acc)
	ce, ancestors := c.addCE(label, c.dagAccs)
	for _, a := range ancestors {
		if end := stateOf(a.CE).end; end > depReady {
			depReady = end
		}
	}
	c.finishLocked(ce, depReady)
	return ce, depReady
}

// HostWrite marks an array as (re)initialized by the controller's host
// code: the controller copy becomes the only valid one. In numeric mode
// the caller mutates arr.Buf directly around this call (serialize those
// mutations against Submit yourself — a buffer being overwritten must not
// be mid-shipment; draining first via Drain or HostRead suffices). Like
// HostRead it drains the dispatch pipeline first.
func (c *Controller) HostWrite(id dag.ArrayID) (sim.VirtualTime, error) {
	return c.hostWrite(id, nil)
}

// hostWrite is HostWrite that, given data, first copies it into the
// array's controller buffer (numeric mode) — after the drain and under
// subMu, so no CE is mid-shipment from the buffer being overwritten and
// none is admitted before the write lands.
func (c *Controller) hostWrite(id dag.ArrayID, data *kernels.Buffer) (sim.VirtualTime, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if err := c.drainLocked(); err != nil {
		return 0, err
	}
	arr, ok := c.arrays[id]
	if !ok {
		return 0, fmt.Errorf("core: host write of unknown array %d", id)
	}
	if data != nil && arr.Buf != nil {
		if err := arr.Buf.SetRawBytes(0, data.RawBytes()); err != nil {
			return 0, err
		}
	}
	ce, depReady := c.addHostCE("host-write", dag.Access{Array: id, Mode: memmodel.Write})
	clear(arr.upToDate)
	arr.upToDate[cluster.ControllerID] = depReady
	arr.clearMembers()
	arr.addMember(cluster.ControllerID)
	arr.gen++
	// A host write starts a new root version: host data has no producer
	// record, but the controller's buffer keeps holding it even after
	// in-place overwrites commit on workers, so lineage chains reaching
	// it recover by re-shipping, not recompute. (The pipeline is
	// drained, so ver and cver advance in lockstep.)
	arr.ver++
	arr.cver = arr.ver
	arr.hostVer = arr.ver
	c.advanceClock(depReady)
	c.traces.Push(CETrace{CE: ce.ID, Label: "host-write",
		Node: cluster.ControllerID, Start: depReady, End: depReady})
	return depReady, nil
}

// BuildKernel compiles a mini-CUDA kernel from source (the NVRTC path of
// buildkernel) and registers it with the controller and, through the
// fabric, with every worker. It drains the pipeline before broadcasting,
// so the fabric-wide registration never races in-flight dispatches.
func (c *Controller) BuildKernel(src, signature string) (*kernels.Def, error) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if err := c.drainLocked(); err != nil {
		return nil, err
	}
	key := minicuda.CacheKey(src, signature)
	var def *kernels.Def
	if name, ok := c.reg.CachedSource(key); ok {
		if d, ok := c.reg.Lookup(name); ok {
			def = d
		}
	}
	if def == nil {
		d, err := minicuda.Compile(src, signature)
		if err != nil {
			return nil, err
		}
		// Shards share one registry, each under its own submission lock.
		if def, err = c.reg.LookupOrRegister(d); err != nil {
			return nil, err
		}
		c.reg.CacheSource(key, def.Name)
	}
	// Always broadcast, cache hit or not: workers that joined after the
	// first build still need the kernel propagated.
	if err := BuildKernel(c.fabric, src, signature); err != nil {
		return nil, err
	}
	return def, nil
}
