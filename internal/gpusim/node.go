package gpusim

import (
	"errors"
	"fmt"

	"grout/internal/memmodel"
	"grout/internal/sim"
)

// Regime classifies which migration regime a kernel launch executed in.
type Regime int

const (
	// Resident: working set fits in device memory.
	Resident Regime = iota
	// Streaming: oversubscribed but below the collapse threshold.
	Streaming
	// Storm: fault handling has collapsed (the paper's slowdown regime).
	Storm
)

func (r Regime) String() string {
	switch r {
	case Resident:
		return "resident"
	case Streaming:
		return "streaming"
	default:
		return "storm"
	}
}

// KernelCost is the execution-cost descriptor of a kernel.
type KernelCost struct {
	// Name labels the kernel in traces and stats.
	Name string
	// Elements is the number of logical work items (threads doing work).
	Elements int64
	// OpsPerElement is the per-element cost in device element-ops.
	OpsPerElement float64
}

// ArgBinding ties one kernel parameter to an allocation and describes how
// the kernel accesses it.
type ArgBinding struct {
	Alloc  AllocID
	Access memmodel.Access
}

// LaunchResult reports what a simulated kernel launch did and cost.
type LaunchResult struct {
	Interval      sim.Interval
	Regime        Regime
	Compute       sim.VirtualTime
	MemTime       sim.VirtualTime
	BytesMigrated memmodel.Bytes
	BytesEvicted  memmodel.Bytes
	Pressure      float64
}

// Node is a simulated multi-GPU server with UVM-managed memory. It is
// driven by one caller at a time.
type Node struct {
	spec    NodeSpec
	devices []*Device
	allocs  map[AllocID]*alloc
	// live lists the allocations in no particular order, for the walks
	// that visit them all (victim selection); alloc.slot indexes it.
	live      []*alloc
	allocated memmodel.Bytes
	nextID    AllocID
	// prefetch and evict are the node's memory-management policies; the
	// defaults reproduce the pre-policy simulator bit for bit.
	prefetch PrefetchPolicy
	evict    EvictionPolicy

	// The launch step's storage, reused by every launch so that a launch
	// allocates nothing: plans holds the launch's argument plans; epoch
	// advances once per launch, and an allocation whose planMark equals
	// it is a plan member (read-mostly arguments excepted), so membership
	// needs no set; victims is evictVictims' heap.
	plans   []argPlan
	epoch   uint64
	victims []victim
}

// NewNode builds a node from its specification, with the baseline
// (eager/LRU) memory policies.
func NewNode(spec NodeSpec) *Node {
	n := &Node{
		spec:     spec,
		allocs:   make(map[AllocID]*alloc),
		nextID:   1,
		prefetch: eagerPrefetch{},
		evict:    lruEviction{},
	}
	for i, ds := range spec.Devices {
		n.devices = append(n.devices, newDevice(ds, i))
	}
	return n
}

// SetMemoryPolicies installs prefetch and eviction policies; nil keeps
// the current one.
func (n *Node) SetMemoryPolicies(p PrefetchPolicy, e EvictionPolicy) {
	if p != nil {
		n.prefetch = p
	}
	if e != nil {
		n.evict = e
	}
}

// UseMemoryPolicies installs policies by registry name; empty names keep
// the baselines. Unknown names are a typed error, never a silent
// fallback.
func (n *Node) UseMemoryPolicies(prefetchName, evictName string) error {
	p, err := NewPrefetchPolicy(prefetchName)
	if err != nil {
		return err
	}
	e, err := NewEvictionPolicy(evictName)
	if err != nil {
		return err
	}
	n.SetMemoryPolicies(p, e)
	return nil
}

// MemoryPolicies reports the installed policy names.
func (n *Node) MemoryPolicies() (prefetch, evict string) {
	return n.prefetch.Name(), n.evict.Name()
}

// Spec returns the node's static specification.
func (n *Node) Spec() NodeSpec { return n.spec }

// Devices returns the node's simulated GPUs.
func (n *Node) Devices() []*Device { return n.devices }

// Device returns device i; it panics on a bad index (scheduler bug).
func (n *Node) Device(i int) *Device {
	if i < 0 || i >= len(n.devices) {
		panic(fmt.Sprintf("gpusim: node %s has no device %d", n.spec.Name, i))
	}
	return n.devices[i]
}

// AllocatedBytes reports total live UVM allocation on the node.
func (n *Node) AllocatedBytes() memmodel.Bytes { return n.allocated }

// ErrHostMemoryExhausted is returned by Alloc when the node's host memory
// cannot hold the new allocation.
var ErrHostMemoryExhausted = errors.New("gpusim: host memory exhausted")

// Alloc creates a UVM allocation of the given size, initially resident in
// host memory, and returns its ID.
func (n *Node) Alloc(size memmodel.Bytes) (AllocID, error) {
	if size <= 0 {
		return 0, fmt.Errorf("gpusim: invalid allocation size %d", int64(size))
	}
	if n.allocated+size > n.spec.HostMemory {
		return 0, fmt.Errorf("%w: %v + %v > %v", ErrHostMemoryExhausted,
			n.allocated, size, n.spec.HostMemory)
	}
	id := n.nextID
	n.nextID++
	n.insert(newAlloc(id, size, len(n.devices)))
	return id, nil
}

// insert registers a new allocation.
func (n *Node) insert(a *alloc) {
	a.slot = len(n.live)
	n.live = append(n.live, a)
	n.allocs[a.id] = a
	n.allocated += a.size
}

// AllocWithID creates an allocation under a caller-chosen ID (used by the
// distributed runtime to mirror global array IDs onto workers).
func (n *Node) AllocWithID(id AllocID, size memmodel.Bytes) error {
	if _, exists := n.allocs[id]; exists {
		return fmt.Errorf("gpusim: allocation %d already exists on %s", id, n.spec.Name)
	}
	if size <= 0 {
		return fmt.Errorf("gpusim: invalid allocation size %d", int64(size))
	}
	if n.allocated+size > n.spec.HostMemory {
		return fmt.Errorf("%w: %v + %v > %v", ErrHostMemoryExhausted,
			n.allocated, size, n.spec.HostMemory)
	}
	n.insert(newAlloc(id, size, len(n.devices)))
	if id >= n.nextID {
		n.nextID = id + 1
	}
	return nil
}

// Free releases an allocation and its device residency.
func (n *Node) Free(id AllocID) error {
	a, ok := n.allocs[id]
	if !ok {
		return fmt.Errorf("gpusim: free of unknown allocation %d", id)
	}
	for d, r := range a.residentOn {
		n.devices[d].residentPages -= r
	}
	n.allocated -= a.size
	delete(n.allocs, id)
	last := n.live[len(n.live)-1]
	n.live[a.slot], last.slot = last, a.slot
	n.live[len(n.live)-1] = nil
	n.live = n.live[:len(n.live)-1]
	return nil
}

// AllocSize reports the size of an allocation.
func (n *Node) AllocSize(id AllocID) (memmodel.Bytes, error) {
	a, ok := n.allocs[id]
	if !ok {
		return 0, fmt.Errorf("gpusim: unknown allocation %d", id)
	}
	return a.size, nil
}

// SetAdvise applies a cudaMemAdvise-style hint to an allocation.
// preferredDevice is only meaningful for AdvisePreferredLocation. Unknown
// advise values and out-of-range preferred devices are rejected with
// typed errors — hints arrive over the wire, and a value the enum does
// not know must not silently become a no-op hint.
func (n *Node) SetAdvise(id AllocID, adv Advise, preferredDevice int) error {
	a, ok := n.allocs[id]
	if !ok {
		return fmt.Errorf("gpusim: advise on unknown allocation %d", id)
	}
	if !adv.Valid() {
		return fmt.Errorf("%w: %d", ErrUnknownAdvise, int(adv))
	}
	if adv == AdvisePreferredLocation && (preferredDevice < 0 || preferredDevice >= len(n.devices)) {
		return fmt.Errorf("%w: preferred device %d out of range [0,%d)",
			ErrBadPreferredDevice, preferredDevice, len(n.devices))
	}
	a.advise = adv
	a.preferred = preferredDevice
	return nil
}

// ResidentPagesOf reports how many pages of alloc id are resident on dev.
func (n *Node) ResidentPagesOf(id AllocID, dev int) int64 {
	a, ok := n.allocs[id]
	if !ok {
		return 0
	}
	return a.residentOn[dev]
}

// argPlan is the per-allocation working plan computed during a launch.
type argPlan struct {
	a        *alloc
	access   memmodel.Access
	touched  int64 // pages touched per pass
	hits     int64 // pages already resident on the target device
	missHost int64 // misses served from host
	missPeer int64 // misses served from a peer device
	peerDev  int
	// dec is the prefetch policy's decision for this plan.
	dec PrefetchDecision
}

// view builds the policy-facing projection of the plan.
func (p *argPlan) view(pressure float64) PlanView {
	return PlanView{
		Alloc:    p.a.id,
		Pattern:  p.access.Pattern,
		Mode:     p.access.Mode,
		Fraction: p.access.Fraction,
		Passes:   p.access.Passes,
		Touched:  p.touched,
		Hits:     p.hits,
		MissHost: p.missHost,
		MissPeer: p.missPeer,
		Pressure: pressure,
		Hist:     &p.a.hist,
	}
}

// Launch simulates one kernel launch on device dev, stream streamIdx. The
// launch may not start before ready (dependency barrier). It returns the
// occupied interval and a cost breakdown.
func (n *Node) Launch(dev, streamIdx int, k KernelCost, args []ArgBinding, ready sim.VirtualTime) (LaunchResult, error) {
	d := n.Device(dev)
	stream := d.Stream(streamIdx)

	// Aggregate accesses per allocation (a kernel may bind the same array
	// to several parameters; count its pages once, worst-case pattern).
	plans, err := n.buildPlans(dev, args)
	if err != nil {
		return LaunchResult{}, err
	}

	var working int64
	for i := range plans {
		working += plans[i].touched
	}
	capacity := d.CapacityPages()

	// Pressure has two components. The kernel's own working set over
	// device capacity captures per-launch thrashing. The node's
	// allocated-over-available ratio is the paper's oversubscription
	// factor: once the UVM driver juggles far more allocation than
	// device memory, eviction churn degrades every substantial kernel,
	// not only the ones whose own set overflows. Small hot working sets
	// (under a quarter of the device) stay cached and are exempt.
	pressure := 0.0
	if capacity > 0 {
		pressure = float64(working) / float64(capacity)
		if working*4 >= capacity {
			if ap := n.allocationPressure(); ap > pressure {
				pressure = ap
			}
		}
	}

	// Ask the prefetch policy what share of each plan's traffic it moves
	// ahead of the access front, and how far that shifts the collapse
	// threshold. Decisions see the allocation's online fault history.
	for i := range plans {
		p := &plans[i]
		p.dec = n.prefetch.Decide(p.view(pressure)).normalize()
	}

	regime := n.classify(plans, pressure)
	memTime, overlap, migrated, prefetched, evicted := n.memoryCost(d, plans, regime, working, capacity, pressure)

	compute := d.spec.LaunchLatency
	if k.Elements > 0 && k.OpsPerElement > 0 && d.spec.Throughput > 0 {
		compute += secondsToVT(float64(k.Elements) * k.OpsPerElement / d.spec.Throughput)
	}

	// Demand-paged migration traffic serializes on the device's single
	// fault path, shared by all streams; the SMs then compute. Traffic
	// the prefetch policy moves ahead of the front — and, with every
	// argument advised to its preferred location, all of it — rides the
	// copy engines overlapping the kernel instead.
	start := sim.Max(ready, stream.FreeAt())
	var end sim.VirtualTime
	if regime == Resident && n.allPreferredHere(plans, dev) {
		end = start + sim.Max(compute, memTime+overlap)
	} else {
		end = start
		if memTime > 0 {
			end = d.faultEngine.Reserve(start, memTime).End
		}
		end += compute
		if overlap > 0 {
			if oiv := d.h2d.Reserve(start, overlap); oiv.End > end {
				end = oiv.End
			}
		}
	}
	interval := stream.Reserve(start, end-start)

	// Keep the copy engines accounted for (other explicit transfers queue
	// behind kernel-driven migration traffic). The prefetched share was
	// already reserved above as overlap; booking it again would double-
	// charge the H2D engine.
	if rem := migrated - prefetched; rem > 0 {
		d.h2d.Reserve(interval.Start, xferTime(rem, d.spec.BulkBW))
	}
	if evicted > 0 {
		d.d2h.Reserve(interval.Start, xferTime(evicted, d.spec.BulkBW))
	}

	n.applyResidency(d, plans, working, capacity, regime, pressure, interval.End)
	d.kernelsRun++

	// Feed the online history ring: what each allocation's launch looked
	// like to the fault engine. Recorded under every policy — the ring is
	// observability; it never changes baseline costs.
	for i := range plans {
		p := &plans[i]
		p.a.hist.record(FaultRecord{
			Time:    interval.End,
			Device:  dev,
			Pattern: p.access.Pattern,
			Regime:  regime,
			Touched: p.touched,
			Missed:  p.missHost + p.missPeer,
		})
	}

	return LaunchResult{
		Interval:      interval,
		Regime:        regime,
		Compute:       compute,
		MemTime:       memTime + overlap,
		BytesMigrated: migrated,
		BytesEvicted:  evicted,
		Pressure:      pressure,
	}, nil
}

// buildPlans validates bindings and computes per-allocation touch/miss
// figures against the target device, one plan per allocation in order of
// first binding. The plans live in the node's slab: valid until the next
// launch.
func (n *Node) buildPlans(dev int, args []ArgBinding) ([]argPlan, error) {
	plans := n.plans[:0]
	for _, b := range args {
		a, ok := n.allocs[b.Alloc]
		if !ok {
			return nil, fmt.Errorf("gpusim: launch references unknown allocation %d", b.Alloc)
		}
		acc := b.Access.Normalize()
		// A kernel binds a handful of arrays: a scan beats a map.
		i := 0
		for i < len(plans) && plans[i].a != a {
			i++
		}
		if i == len(plans) {
			plans = append(plans, argPlan{a: a, access: acc, peerDev: hostLocation})
		} else {
			p := &plans[i]
			// Merge: widen the mode, keep the costlier pattern, the
			// larger fraction and the larger pass count.
			if acc.Mode.Writes() && !p.access.Mode.Writes() {
				if p.access.Mode.Reads() || acc.Mode.Reads() {
					p.access.Mode = memmodel.ReadWrite
				} else {
					p.access.Mode = memmodel.Write
				}
			}
			if collapseThreshold(acc.Pattern) < collapseThreshold(p.access.Pattern) {
				p.access.Pattern = acc.Pattern
			}
			if acc.Fraction > p.access.Fraction {
				p.access.Fraction = acc.Fraction
			}
			if acc.Passes > p.access.Passes {
				p.access.Passes = acc.Passes
			}
		}
	}
	n.plans = plans
	for i := range plans {
		p := &plans[i]
		p.touched = p.access.TouchedPages(p.a.size)
		hits := p.a.residentOn[dev]
		if hits > p.touched {
			hits = p.touched
		}
		p.hits = hits
		miss := p.touched - hits
		// Serve misses from a peer device if the pages live there.
		for peer := range p.a.residentOn {
			if peer == dev || miss == 0 {
				continue
			}
			avail := p.a.residentOn[peer]
			take := avail
			if take > miss {
				take = miss
			}
			if take > 0 {
				p.missPeer += take
				p.peerDev = peer
				miss -= take
			}
		}
		p.missHost = miss
	}
	return plans, nil
}

// allocationPressure is the node-level oversubscription factor: live UVM
// allocation over total device memory (the paper's x-axis).
func (n *Node) allocationPressure() float64 {
	total := n.spec.TotalDeviceMemory()
	if total <= 0 {
		return 0
	}
	return float64(n.allocated) / float64(total)
}

// residentTolerance absorbs the sliver of allocation pressure contributed
// by scalar plumbing arrays around an exactly-fitting working set.
const residentTolerance = 1.02

// classify picks the migration regime for a launch: the collapse threshold
// is the byte-weighted mean of the per-pattern thresholds, so a kernel
// dominated by a dense sweep tolerates more oversubscription than one
// dominated by random access.
func (n *Node) classify(plans []argPlan, pressure float64) Regime {
	if pressure <= residentTolerance {
		return Resident
	}
	if pressure <= weightedThreshold(plans) {
		return Streaming
	}
	return Storm
}

// weightedThreshold is the byte-weighted mean of the per-pattern collapse
// thresholds over the kernel's arguments, each scaled by the prefetch
// policy's threshold shift (1 under the baseline).
func weightedThreshold(plans []argPlan) float64 {
	var weighted, total float64
	for i := range plans {
		p := &plans[i]
		w := float64(p.touched)
		weighted += w * collapseThreshold(p.access.Pattern) * p.dec.ThresholdScale
		total += w
	}
	if total == 0 {
		return 2.0
	}
	return weighted / total
}

// memoryCost computes the migration time and traffic volumes of a launch
// under the chosen regime. memTime is serialized on the fault engine;
// overlap is traffic the prefetch policy moves at bulk rate concurrently
// with compute (zero under the baseline, whose demand paging serializes
// everything); prefetched is the byte share of migrated carried by that
// overlap, so the caller does not book it on the copy engine twice.
func (n *Node) memoryCost(d *Device, plans []argPlan, regime Regime, working, capacity int64, pressure float64) (memTime, overlap sim.VirtualTime, migrated, prefetched, evicted memmodel.Bytes) {
	overflow := working - capacity
	if overflow < 0 {
		overflow = 0
	}
	// Past the collapse threshold, ping-pong worsens super-linearly with
	// the oversubscription factor (Fig. 1's exponential tail).
	stormPenalty := 1.0
	if regime == Storm {
		if w := weightedThreshold(plans); w > 0 && pressure > w {
			stormPenalty = pressure / w
		}
	}
	for i := range plans {
		p := &plans[i]
		eff := batchEfficiency(p.access.Pattern)
		passes := int64(p.access.Passes)
		writes := p.access.Mode.Writes()
		bf := p.dec.BulkFraction

		if p.a.advise == AdviseReadMostly && !writes {
			// Read-duplicated pages stream from host copies each pass at
			// bulk rate and never occupy device residency exclusively.
			traffic := bytesOf(p.touched * passes)
			memTime += xferTime(traffic, d.spec.BulkBW*eff)
			migrated += traffic
			continue
		}

		switch regime {
		case Resident:
			// Misses already coalesce at bulk rate; the prefetch policy's
			// share moves ahead of the front, overlapping compute instead
			// of stalling it.
			aheadHost := int64(bf * float64(p.missHost))
			aheadPeer := int64(bf * float64(p.missPeer))
			memTime += xferTime(bytesOf(p.missHost-aheadHost), d.spec.BulkBW*eff)
			memTime += xferTime(bytesOf(p.missPeer-aheadPeer), d.spec.PeerBW*eff)
			overlap += xferTime(bytesOf(aheadHost), d.spec.BulkBW*eff)
			overlap += xferTime(bytesOf(aheadPeer), d.spec.PeerBW*eff)
			migrated += bytesOf(p.missHost) + bytesOf(p.missPeer)
			prefetched += bytesOf(aheadHost + aheadPeer)

		case Streaming:
			// First pass faults every miss; each further pass re-faults
			// this allocation's share of the overflow (LRU cycled it out).
			// The prefetched share of that traffic coalesces at bulk rate
			// and overlaps compute — the streaming-regime re-migration
			// turns into overlap instead of stall.
			share := int64(0)
			if working > 0 {
				share = overflow * p.touched / working
			}
			cycled := p.missHost + p.missPeer + (passes-1)*share
			ahead := int64(bf * float64(cycled))
			memTime += xferTime(bytesOf(cycled-ahead), d.spec.FaultBW*eff)
			overlap += xferTime(bytesOf(ahead), d.spec.BulkBW*eff)
			migrated += bytesOf(cycled)
			prefetched += bytesOf(ahead)
			if writes && share > 0 {
				wb := bytesOf(share * passes)
				memTime += xferTime(wb, d.spec.FaultBW*eff)
				evicted += wb
			}

		case Storm:
			// Fault batching has collapsed: every pass re-migrates the
			// full touched set in splintered chunks, and dirty pages
			// ping-pong back. Prefetching is defeated here — a policy's
			// lever against the storm is its threshold shift, not its
			// bulk fraction.
			bw := d.spec.StormBW * stormEfficiency(p.access.Pattern) / stormPenalty
			traffic := bytesOf(p.touched * passes)
			memTime += xferTime(traffic, bw)
			migrated += traffic
			if writes {
				wb := bytesOf(p.touched * passes / 2)
				memTime += xferTime(wb, bw)
				evicted += wb
			}
		}
	}
	return memTime, overlap, migrated, prefetched, evicted
}

// allPreferredHere reports whether every argument allocation is advised to
// prefer the launch device (the hand-tuned prefetch scenario).
func (n *Node) allPreferredHere(plans []argPlan, dev int) bool {
	for i := range plans {
		p := &plans[i]
		if p.a.advise != AdvisePreferredLocation || p.a.preferred != dev {
			return false
		}
	}
	return len(plans) > 0
}

// applyResidency updates page accounting after a launch: argument pages
// become resident on the device (bounded by capacity, evicting bystander
// allocations in the eviction policy's victim order first), dirty bits
// reflect write accesses, and the policy's retention decision governs how
// much of its share each plan keeps behind the access front.
func (n *Node) applyResidency(d *Device, plans []argPlan, working, capacity int64, regime Regime, pressure float64, now sim.VirtualTime) {
	dev := d.index
	// Mark the plan members and sum what they want and already hold.
	n.epoch++
	var planned, held int64
	for i := range plans {
		p := &plans[i]
		if p.a.advise == AdviseReadMostly && !p.access.Mode.Writes() {
			continue // read-duplicated: does not claim residency
		}
		p.a.planMark = n.epoch
		planned += p.touched
		held += p.a.residentOn[dev]
	}

	// Evict bystanders until the plan's resident target fits.
	target := planned
	if target > capacity {
		target = capacity
	}
	bystanders := d.residentPages - held
	free := capacity - bystanders - held
	need := target - held
	if need > free {
		n.evictVictims(d, need-free, now)
	}

	// Distribute residency among plan allocations. If everything fits
	// each keeps its touched set; otherwise they share capacity
	// proportionally (the cycling steady state). The eviction policy may
	// scale a plan's share down — self-eviction behind a dense front.
	for i := range plans {
		p := &plans[i]
		if p.a.advise == AdviseReadMostly && !p.access.Mode.Writes() {
			p.a.lastUse[dev] = now
			continue
		}
		newResident := p.touched
		if planned > target && planned > 0 {
			newResident = target * p.touched / planned
		}
		if r := clampRetention(n.evict.Retention(p.view(pressure), regime)); r < 1 {
			newResident = int64(r * float64(newResident))
		}
		n.setResident(d, p.a, newResident)
		if p.access.Mode.Writes() {
			p.a.dirtyOn[dev] = newResident
		} else if p.a.dirtyOn[dev] > newResident {
			p.a.dirtyOn[dev] = newResident
		}
		p.a.lastUse[dev] = now
		d.pagesMigratedIn += p.missHost + p.missPeer
		p.a.checkInvariants()
	}
}

// setResident adjusts an allocation's residency on a device. When pages
// move onto the device they are taken from the host first, then from the
// peer with the most copies (migration empties the source under UVM).
func (n *Node) setResident(d *Device, a *alloc, pages int64) {
	dev := d.index
	cur := a.residentOn[dev]
	if pages == cur {
		return
	}
	if pages < cur {
		// Shrink: pages fall back to host.
		delta := cur - pages
		a.residentOn[dev] = pages
		if a.dirtyOn[dev] > pages {
			d.pagesWrittenBack += a.dirtyOn[dev] - pages
			a.dirtyOn[dev] = pages
		}
		d.residentPages -= delta
		return
	}
	grow := pages - cur
	// Source from host.
	host := a.hostPages()
	fromHost := grow
	if fromHost > host {
		fromHost = host
	}
	grow -= fromHost
	// Then from peers.
	for peer := range a.residentOn {
		if grow == 0 {
			break
		}
		if peer == dev {
			continue
		}
		take := a.residentOn[peer]
		if take > grow {
			take = grow
		}
		if take > 0 {
			a.residentOn[peer] -= take
			if a.dirtyOn[peer] > a.residentOn[peer] {
				a.dirtyOn[peer] = a.residentOn[peer]
			}
			n.devices[peer].residentPages -= take
			grow -= take
		}
	}
	moved := pages - cur - grow // pages actually sourced
	a.residentOn[dev] = cur + moved
	d.residentPages += moved
}

// victim is an eviction candidate with its order key, computed once.
type victim struct {
	a       *alloc
	rank    float64
	lastUse sim.VirtualTime
}

// before is the victim order: the policy's rank, then least recently
// used, then allocation ID. The ID makes it a strict total order, so the
// victims evicted do not depend on the order they were gathered in.
func (v *victim) before(w *victim) bool {
	if v.rank != w.rank {
		return v.rank < w.rank
	}
	if v.lastUse != w.lastUse {
		return v.lastUse < w.lastUse
	}
	return v.a.id < w.a.id
}

// evictVictims evicts up to need pages of bystander allocations (not
// marked as members of the current plan), in the eviction policy's victim
// order — least recently used first under the baseline. Pinned allocations
// (AdvisePreferredLocation on this device) and plan members are never
// victims regardless of policy: the node enforces that invariant here so
// a buggy policy cannot break it. Dirty pages count as write-backs.
//
// Candidates are ranked once and popped from a heap, so a launch that
// needs one victim's pages pays for one pop, not a sort of every resident
// allocation.
func (n *Node) evictVictims(d *Device, need int64, now sim.VirtualTime) {
	dev := d.index
	h := n.victims[:0]
	for _, a := range n.live {
		if a.planMark == n.epoch || a.residentOn[dev] == 0 {
			continue
		}
		if a.advise == AdvisePreferredLocation && a.preferred == dev {
			continue // pinned
		}
		h = append(h, victim{a: a, lastUse: a.lastUse[dev], rank: n.evict.Rank(VictimView{
			Alloc:    a.id,
			LastUse:  a.lastUse[dev],
			Resident: a.residentOn[dev],
			Dirty:    a.dirtyOn[dev],
			Hist:     &a.hist,
		})})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for need > 0 && len(h) > 0 {
		a := h[0].a
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, 0)

		take := a.residentOn[dev]
		if take > need {
			take = need
		}
		dirtyDrop := a.dirtyOn[dev]
		a.residentOn[dev] -= take
		if a.dirtyOn[dev] > a.residentOn[dev] {
			d.pagesWrittenBack += dirtyDrop - a.residentOn[dev]
			a.dirtyOn[dev] = a.residentOn[dev]
		}
		d.residentPages -= take
		d.pagesEvicted += take
		need -= take
		a.checkInvariants()
	}
	clear(h[:cap(h)]) // hold no allocation past the launch
	n.victims = h[:0]
}

// siftDown restores the min-heap property (by victim order) below i.
func siftDown(h []victim, i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].before(&h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(&h[m]) {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// HostTouch simulates the host CPU reading or writing a fraction of an
// allocation (e.g. the controller initializing an array or consuming a
// result). Device-dirty pages flush back first; touched pages migrate to
// the host. Returns the interval occupied on the node's D2H engines.
func (n *Node) HostTouch(id AllocID, mode memmodel.AccessMode, fraction float64, ready sim.VirtualTime) (sim.Interval, error) {
	a, ok := n.allocs[id]
	if !ok {
		return sim.Interval{}, fmt.Errorf("gpusim: host touch of unknown allocation %d", id)
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 1
	}
	end := ready
	start := sim.Infinity
	any := false
	for devIdx, dev := range n.devices {
		res := a.residentOn[devIdx]
		if res == 0 {
			continue
		}
		// CPU touch migrates the touched share of device pages home.
		pull := int64(float64(res) * fraction)
		if pull == 0 {
			continue
		}
		iv := dev.d2h.Reserve(ready, xferTime(bytesOf(pull), dev.spec.BulkBW))
		a.residentOn[devIdx] -= pull
		if a.dirtyOn[devIdx] > a.residentOn[devIdx] {
			dev.pagesWrittenBack += a.dirtyOn[devIdx] - a.residentOn[devIdx]
			a.dirtyOn[devIdx] = a.residentOn[devIdx]
		}
		dev.residentPages -= pull
		if iv.End > end {
			end = iv.End
		}
		if iv.Start < start {
			start = iv.Start
		}
		any = true
	}
	a.checkInvariants()
	if !any {
		start = ready
	}
	return sim.Interval{Start: start, End: end}, nil
}

// Prefetch simulates cudaMemPrefetchAsync: moves the allocation's host
// pages to the device at bulk bandwidth on the H2D engine (up to free
// capacity; no eviction is forced by a prefetch).
func (n *Node) Prefetch(id AllocID, dev int, ready sim.VirtualTime) (sim.Interval, error) {
	a, ok := n.allocs[id]
	if !ok {
		return sim.Interval{}, fmt.Errorf("gpusim: prefetch of unknown allocation %d", id)
	}
	d := n.Device(dev)
	pull := a.hostPages()
	if free := d.FreePages(); pull > free {
		pull = free
	}
	if pull <= 0 {
		return sim.Interval{Start: ready, End: ready}, nil
	}
	iv := d.h2d.Reserve(ready, xferTime(bytesOf(pull), d.spec.BulkBW))
	a.residentOn[dev] += pull
	d.residentPages += pull
	d.pagesMigratedIn += pull
	a.lastUse[dev] = iv.End
	a.checkInvariants()
	return iv, nil
}

// FlushForSend prepares an allocation for network transmission: all dirty
// device pages are written back so the host copy is coherent. Residency is
// retained (pages stay cached clean). Returns when the host copy is ready.
func (n *Node) FlushForSend(id AllocID, ready sim.VirtualTime) (sim.VirtualTime, error) {
	a, ok := n.allocs[id]
	if !ok {
		return 0, fmt.Errorf("gpusim: flush of unknown allocation %d", id)
	}
	end := ready
	for devIdx, dev := range n.devices {
		dirty := a.dirtyOn[devIdx]
		if dirty == 0 {
			continue
		}
		iv := dev.d2h.Reserve(ready, xferTime(bytesOf(dirty), dev.spec.BulkBW))
		dev.pagesWrittenBack += dirty
		a.dirtyOn[devIdx] = 0
		if iv.End > end {
			end = iv.End
		}
	}
	return end, nil
}

// Invalidate marks an allocation's device copies stale (the host copy was
// just overwritten, e.g. by a network receive): device pages are dropped
// without write-back.
func (n *Node) Invalidate(id AllocID) error {
	a, ok := n.allocs[id]
	if !ok {
		return fmt.Errorf("gpusim: invalidate of unknown allocation %d", id)
	}
	for devIdx, dev := range n.devices {
		dev.residentPages -= a.residentOn[devIdx]
		a.residentOn[devIdx] = 0
		a.dirtyOn[devIdx] = 0
	}
	a.checkInvariants()
	return nil
}

// PredictStall estimates the serialized migration stall a kernel whose
// arguments total working bytes, with the given dominant access pattern,
// would pay if launched on this node after add more bytes were allocated
// here. This is the predicted-fault-rate cost term consumed by
// fault-aware placement: transfer time prices getting the data to a
// node; this prices what UVM oversubscription does to the kernel once it
// is there. The prediction mirrors Launch's regime model — including the
// installed prefetch policy's threshold shift and overlap — so a node
// whose prefetcher tolerates deep oversubscription predicts cheaper than
// one on pure demand paging.
func (n *Node) PredictStall(add, working memmodel.Bytes, pattern memmodel.Pattern) sim.VirtualTime {
	if working <= 0 || len(n.devices) == 0 {
		return 0
	}
	total := n.spec.TotalDeviceMemory()
	if total <= 0 {
		return 0
	}
	d := n.devices[0]
	capacity := d.CapacityPages()
	if capacity <= 0 {
		return 0
	}
	wp := working.Pages()
	// Mirror Launch's pressure rule: the kernel's own working set over
	// one device's capacity, escalated to the node-level allocation
	// factor once the working set is substantial.
	pressure := float64(wp) / float64(capacity)
	if wp*4 >= capacity {
		if ap := float64(n.allocated+add) / float64(total); ap > pressure {
			pressure = ap
		}
	}
	dec := n.prefetch.Decide(PlanView{
		Pattern:  pattern,
		Mode:     memmodel.Read,
		Fraction: 1,
		Passes:   1,
		Touched:  wp,
		Pressure: pressure,
	}).normalize()
	threshold := collapseThreshold(pattern) * dec.ThresholdScale
	eff := batchEfficiency(pattern)
	switch {
	case pressure <= residentTolerance:
		// Fits: first-touch migration coalesces at bulk rate and is
		// already priced as transfer time by the placement layer.
		return 0
	case pressure <= threshold:
		// Streaming: the demand-faulted share of the working set stalls
		// the fault engine; the prefetched share overlaps compute.
		stall := xferTime(working, d.spec.FaultBW*eff)
		return sim.VirtualTime((1 - dec.BulkFraction) * float64(stall))
	default:
		// Storm: the full working set re-migrates at collapsed bandwidth,
		// super-linearly worse with pressure.
		penalty := 1.0
		if threshold > 0 && pressure > threshold {
			penalty = pressure / threshold
		}
		return xferTime(working, d.spec.StormBW*stormEfficiency(pattern)/penalty)
	}
}

// CheckInvariants verifies global page accounting; tests call it after
// mutation sequences.
func (n *Node) CheckInvariants() error {
	perDev := make([]int64, len(n.devices))
	for _, a := range n.allocs {
		a.checkInvariants()
		for d, r := range a.residentOn {
			perDev[d] += r
		}
	}
	for i, d := range n.devices {
		if perDev[i] != d.residentPages {
			return fmt.Errorf("gpusim: device %d resident mismatch: sum %d, counter %d",
				i, perDev[i], d.residentPages)
		}
		if d.residentPages > d.CapacityPages() {
			return fmt.Errorf("gpusim: device %d over capacity: %d > %d",
				i, d.residentPages, d.CapacityPages())
		}
		if d.residentPages < 0 {
			return fmt.Errorf("gpusim: device %d negative residency %d", i, d.residentPages)
		}
	}
	return nil
}
