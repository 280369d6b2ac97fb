package gpusim

// Pluggable UVM memory-management policies (DESIGN.md §5.7). The
// simulator's fixed pipeline — eager demand prefetch, LRU eviction —
// becomes two policy seams: a PrefetchPolicy decides how much of a
// launch's migration traffic the prefetcher moves ahead of the access
// front (coalesced, overlapping compute) instead of through the
// serialized fault path, and how far the pattern's collapse threshold
// shifts as a result; an EvictionPolicy decides victim ordering and how
// much residency a streaming argument retains behind the front.
//
// Policies are fed by two signal sources: the static per-argument
// memmodel.Pattern descriptors the mini-CUDA compiler extracts, and the
// online per-allocation fault/reuse history ring the node maintains
// across launches. The baselines ("eager"/"lru") reproduce the
// pre-policy simulator bit for bit.

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"grout/internal/memmodel"
	"grout/internal/sim"
)

// ErrUnknownPrefetchPolicy and ErrUnknownEvictionPolicy classify registry
// lookups of unregistered policy names (wrapped with the offending name).
var (
	ErrUnknownPrefetchPolicy = errors.New("gpusim: unknown prefetch policy")
	ErrUnknownEvictionPolicy = errors.New("gpusim: unknown eviction policy")
)

// historyRing is the depth of the per-allocation fault history: deep
// enough to see a workload's steady state, shallow enough to forget a
// phase change within a few launches.
const historyRing = 8

// FaultRecord is one launch's footprint on an allocation, as seen by the
// node's fault engine.
type FaultRecord struct {
	// Time is the launch's completion time.
	Time sim.VirtualTime
	// Device is the launch device.
	Device int
	// Pattern is the merged access pattern of the launch's bindings.
	Pattern memmodel.Pattern
	// Regime is the migration regime the launch executed in.
	Regime Regime
	// Touched is the pages the launch touched per pass; Missed is how
	// many of them faulted (served from host or a peer device).
	Touched, Missed int64
}

// AllocHistory is the online fault/reuse ring of one allocation. The
// zero value is an empty history.
type AllocHistory struct {
	ring  [historyRing]FaultRecord
	count int64
}

func (h *AllocHistory) record(r FaultRecord) {
	h.ring[h.count%historyRing] = r
	h.count++
}

// Launches reports how many launches ever touched the allocation.
func (h *AllocHistory) Launches() int64 { return h.count }

// Len reports how many records the ring currently holds.
func (h *AllocHistory) Len() int {
	if h.count < historyRing {
		return int(h.count)
	}
	return historyRing
}

// At returns the i-th most recent record; At(0) is the newest. It panics
// outside [0, Len()).
func (h *AllocHistory) At(i int) FaultRecord {
	if i < 0 || i >= h.Len() {
		panic(fmt.Sprintf("gpusim: history index %d out of range [0,%d)", i, h.Len()))
	}
	return h.ring[(h.count-1-int64(i))%historyRing]
}

// MissRatio reports faulted pages over touched pages across the ring —
// the allocation's observed fault rate. Zero history reports 0.
func (h *AllocHistory) MissRatio() float64 {
	var touched, missed int64
	for i := 0; i < h.Len(); i++ {
		r := h.At(i)
		touched += r.Touched
		missed += r.Missed
	}
	if touched == 0 {
		return 0
	}
	return float64(missed) / float64(touched)
}

// DenseShare reports the fraction of ring records whose pattern is a
// dense sweep (sequential or strided) — the prefetcher-friendly share of
// the allocation's recent traffic.
func (h *AllocHistory) DenseShare() float64 {
	n := h.Len()
	if n == 0 {
		return 0
	}
	dense := 0
	for i := 0; i < n; i++ {
		switch h.At(i).Pattern {
		case memmodel.Sequential, memmodel.Strided:
			dense++
		}
	}
	return float64(dense) / float64(n)
}

// PlanView is the read-only view of one argument plan that memory
// policies decide on: the compiler's static descriptor plus the launch's
// miss accounting and the allocation's online history. Hist is nil for
// hypothetical queries (stall prediction for placement).
type PlanView struct {
	Alloc    AllocID
	Pattern  memmodel.Pattern
	Mode     memmodel.AccessMode
	Fraction float64
	Passes   int
	// Touched/Hits/MissHost/MissPeer are the plan's page accounting
	// against the launch device.
	Touched, Hits, MissHost, MissPeer int64
	// Pressure is the launch's oversubscription pressure (working set or
	// node allocation over device capacity, whichever governs).
	Pressure float64
	Hist     *AllocHistory
}

// PrefetchDecision is a PrefetchPolicy's answer for one argument plan.
type PrefetchDecision struct {
	// BulkFraction in [0,1] is the share of the plan's demand-miss (and
	// streaming-regime cycled) traffic the prefetcher moves at bulk
	// bandwidth overlapping compute, instead of serialized through the
	// fault engine. 0 reproduces pure demand paging.
	BulkFraction float64
	// ThresholdScale multiplies the pattern's storm-collapse threshold: a
	// prefetcher running ahead of a dense sweep keeps faults batched
	// deeper into oversubscription. 1 reproduces the static threshold.
	ThresholdScale float64
}

// normalize clamps a decision into its legal range.
func (d PrefetchDecision) normalize() PrefetchDecision {
	if d.BulkFraction < 0 {
		d.BulkFraction = 0
	}
	if d.BulkFraction > 1 {
		d.BulkFraction = 1
	}
	if d.ThresholdScale <= 0 {
		d.ThresholdScale = 1
	}
	return d
}

// PrefetchPolicy shapes how a launch's migration traffic moves.
// Implementations must be deterministic pure functions of the view; the
// node serializes calls.
type PrefetchPolicy interface {
	// Name returns the policy's registry name.
	Name() string
	// Decide returns the prefetch decision for one argument plan.
	Decide(view PlanView) PrefetchDecision
}

// VictimView is the per-allocation view an EvictionPolicy orders victims
// by. Pinned allocations and the current launch's plan are never offered
// as victims — the node enforces that invariant, not the policy.
type VictimView struct {
	Alloc    AllocID
	LastUse  sim.VirtualTime
	Resident int64
	Dirty    int64
	Hist     *AllocHistory
}

// EvictionPolicy controls what leaves device memory and what a launch
// keeps behind.
type EvictionPolicy interface {
	// Name returns the policy's registry name.
	Name() string
	// Retention scales the residency share a plan argument keeps after
	// its launch, in [0,1]. 1 reproduces the proportional-share default;
	// lower values self-evict behind the access front, freeing capacity
	// for allocations that will actually re-hit it.
	Retention(view PlanView, regime Regime) float64
	// Rank orders eviction victims: pages of a lower-ranked allocation
	// are evicted first. The node asks once per candidate per eviction and
	// breaks equal ranks by least recent use, then by lower allocation ID,
	// so the victim order is deterministic whatever the policy.
	Rank(v VictimView) float64
}

// clampRetention keeps policy output in [0,1].
func clampRetention(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// ---- prefetch policies ----------------------------------------------------

// eagerPrefetch is the baseline: pure demand paging, static thresholds —
// bit-compatible with the pre-policy simulator.
type eagerPrefetch struct{}

func (eagerPrefetch) Name() string { return "eager" }

func (eagerPrefetch) Decide(PlanView) PrefetchDecision {
	return PrefetchDecision{BulkFraction: 0, ThresholdScale: 1}
}

// stridePrefetch runs ahead of dense access fronts: sequential and
// strided arguments have most of their miss traffic moved by coalesced
// prefetch overlapping compute, and tolerate deeper oversubscription
// before fault batching collapses (the cliff shift). Random access gets
// no speculation — prefetching it would waste fault-path bandwidth.
type stridePrefetch struct{}

func (stridePrefetch) Name() string { return "stride" }

func (stridePrefetch) Decide(v PlanView) PrefetchDecision {
	var d PrefetchDecision
	switch v.Pattern {
	case memmodel.Sequential:
		d = PrefetchDecision{BulkFraction: 0.9, ThresholdScale: 1.5}
	case memmodel.Strided:
		d = PrefetchDecision{BulkFraction: 0.75, ThresholdScale: 1.35}
	case memmodel.Broadcast:
		d = PrefetchDecision{BulkFraction: 0.3, ThresholdScale: 1}
	default: // Random
		return PrefetchDecision{BulkFraction: 0, ThresholdScale: 1}
	}
	// The prefetcher locks onto the stride after observing a pass; the
	// first launch of an allocation still pays mostly demand faults.
	if v.Hist == nil || v.Hist.Len() == 0 {
		d.BulkFraction *= 0.5
	}
	return d
}

// adaptivePrefetch is history-driven: it speculates in proportion to the
// dense share of the allocation's observed traffic, ignoring the static
// descriptor until the ring has evidence. An allocation that keeps being
// swept earns deep prefetch; one that keeps being walked randomly stays
// on demand paging.
type adaptivePrefetch struct{}

func (adaptivePrefetch) Name() string { return "adaptive" }

func (adaptivePrefetch) Decide(v PlanView) PrefetchDecision {
	if v.Hist == nil || v.Hist.Len() == 0 {
		return PrefetchDecision{BulkFraction: 0, ThresholdScale: 1}
	}
	ds := v.Hist.DenseShare()
	return PrefetchDecision{BulkFraction: 0.9 * ds, ThresholdScale: 1 + 0.5*ds}
}

// ---- eviction policies ----------------------------------------------------

// lruEviction is the baseline: least-recently-used victim ordering, full
// proportional-share retention — bit-compatible with the pre-policy
// simulator.
type lruEviction struct{}

func (lruEviction) Name() string { return "lru" }

func (lruEviction) Retention(PlanView, Regime) float64 { return 1 }

// Rank is flat: the node's least-recently-used tie-break decides.
func (lruEviction) Rank(VictimView) float64 { return 0 }

// streamEviction self-evicts behind dense access fronts: a single-pass
// sweep's pages are dead the moment the front passes them, so retaining
// them only poisons the cache for allocations with actual reuse. Victim
// ordering prefers allocations whose history is sweep-dominated.
type streamEviction struct{}

func (streamEviction) Name() string { return "stream" }

func (streamEviction) Retention(v PlanView, regime Regime) float64 {
	if regime == Resident {
		return 1
	}
	if (v.Pattern == memmodel.Sequential || v.Pattern == memmodel.Strided) && v.Passes <= 1 {
		return 0.25 // keep only the tail window behind the front
	}
	return 1
}

// Rank puts sweep-dominated allocations first.
func (streamEviction) Rank(v VictimView) float64 { return -denseShareOf(v.Hist) }

// workingSetEviction keeps hot random-access working sets pinned: victim
// ordering evicts the least-frequently-launched allocations first, and
// cycling sweeps under pressure give up half their share instead of
// poisoning the cache of allocations that re-hit their pages.
type workingSetEviction struct{}

func (workingSetEviction) Name() string { return "working-set" }

func (workingSetEviction) Retention(v PlanView, regime Regime) float64 {
	if regime == Resident || v.Pattern == memmodel.Random {
		return 1 // the hot set stays
	}
	return 0.5
}

// Rank puts cold (least frequently launched) allocations first.
func (workingSetEviction) Rank(v VictimView) float64 { return float64(launchesOf(v.Hist)) }

func denseShareOf(h *AllocHistory) float64 {
	if h == nil {
		return 0
	}
	return h.DenseShare()
}

func launchesOf(h *AllocHistory) int64 {
	if h == nil {
		return 0
	}
	return h.Launches()
}

// ---- registry --------------------------------------------------------------

// NewPrefetchPolicy constructs a prefetch policy by name. The empty name
// is the baseline.
func NewPrefetchPolicy(name string) (PrefetchPolicy, error) {
	switch name {
	case "", "eager":
		return eagerPrefetch{}, nil
	case "stride":
		return stridePrefetch{}, nil
	case "adaptive":
		return adaptivePrefetch{}, nil
	}
	return nil, fmt.Errorf("%w: %q (have %s)",
		ErrUnknownPrefetchPolicy, name, strings.Join(PrefetchPolicyNames(), ", "))
}

// NewEvictionPolicy constructs an eviction policy by name. The empty
// name is the baseline.
func NewEvictionPolicy(name string) (EvictionPolicy, error) {
	switch name {
	case "", "lru":
		return lruEviction{}, nil
	case "stream":
		return streamEviction{}, nil
	case "working-set", "ws":
		return workingSetEviction{}, nil
	}
	return nil, fmt.Errorf("%w: %q (have %s)",
		ErrUnknownEvictionPolicy, name, strings.Join(EvictionPolicyNames(), ", "))
}

// PrefetchPolicyNames lists the available prefetch policies.
func PrefetchPolicyNames() []string {
	names := []string{"eager", "stride", "adaptive"}
	sort.Strings(names)
	return names
}

// EvictionPolicyNames lists the available eviction policies.
func EvictionPolicyNames() []string {
	names := []string{"lru", "stream", "working-set"}
	sort.Strings(names)
	return names
}
