package gpusim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"grout/internal/memmodel"
)

// policyCombos enumerates every prefetch × eviction policy pairing.
func policyCombos() [][2]string {
	var combos [][2]string
	for _, p := range PrefetchPolicyNames() {
		for _, e := range EvictionPolicyNames() {
			combos = append(combos, [2]string{p, e})
		}
	}
	return combos
}

func TestAdviseValidation(t *testing.T) {
	n := NewNode(NodeSpec{
		Name:       "adv",
		Devices:    []DeviceSpec{V100Spec("adv/gpu0")},
		HostMemory: 64 * memmodel.GiB,
	})
	id, err := n.Alloc(1 * memmodel.GiB)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}

	for _, adv := range []Advise{AdviseNone, AdviseReadMostly} {
		if err := n.SetAdvise(id, adv, 0); err != nil {
			t.Errorf("SetAdvise(%v): %v", adv, err)
		}
	}
	if err := n.SetAdvise(id, AdvisePreferredLocation, 0); err != nil {
		t.Errorf("SetAdvise(preferred, 0): %v", err)
	}

	// Unknown enum values (hostile wire input) must be a typed error.
	for _, adv := range []Advise{Advise(-1), Advise(99)} {
		err := n.SetAdvise(id, adv, 0)
		if !errors.Is(err, ErrUnknownAdvise) {
			t.Errorf("SetAdvise(%d) = %v, want ErrUnknownAdvise", int(adv), err)
		}
	}
	// Preferred location must name a device the node has.
	for _, dev := range []int{-1, 1, 7} {
		err := n.SetAdvise(id, AdvisePreferredLocation, dev)
		if !errors.Is(err, ErrBadPreferredDevice) {
			t.Errorf("SetAdvise(preferred, %d) = %v, want ErrBadPreferredDevice", dev, err)
		}
	}
	// Rejected hints must not have changed the allocation's state.
	if a := n.allocs[id]; a.advise != AdvisePreferredLocation || a.preferred != 0 {
		t.Errorf("rejected advise mutated state: advise=%v preferred=%d", a.advise, a.preferred)
	}
}

func TestPolicyRegistry(t *testing.T) {
	if _, err := NewPrefetchPolicy("bogus"); err == nil {
		t.Error("NewPrefetchPolicy(bogus) succeeded, want error")
	}
	if _, err := NewEvictionPolicy("bogus"); err == nil {
		t.Error("NewEvictionPolicy(bogus) succeeded, want error")
	}
	for _, name := range PrefetchPolicyNames() {
		p, err := NewPrefetchPolicy(name)
		if err != nil {
			t.Fatalf("NewPrefetchPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
	}
	for _, name := range EvictionPolicyNames() {
		e, err := NewEvictionPolicy(name)
		if err != nil {
			t.Fatalf("NewEvictionPolicy(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Errorf("policy %q reports name %q", name, e.Name())
		}
	}

	n := NewNode(NodeSpec{
		Name:       "reg",
		Devices:    []DeviceSpec{V100Spec("reg/gpu0")},
		HostMemory: 64 * memmodel.GiB,
	})
	if err := n.UseMemoryPolicies("stride", "stream"); err != nil {
		t.Fatalf("UseMemoryPolicies: %v", err)
	}
	if p, e := n.MemoryPolicies(); p != "stride" || e != "stream" {
		t.Errorf("MemoryPolicies() = %q, %q", p, e)
	}
	if err := n.UseMemoryPolicies("nope", "lru"); err == nil {
		t.Error("UseMemoryPolicies(nope) succeeded, want error")
	}
	// A failed install must not have half-applied.
	if p, e := n.MemoryPolicies(); p != "stride" || e != "stream" {
		t.Errorf("failed install mutated policies: %q, %q", p, e)
	}
}

func TestAllocHistoryRing(t *testing.T) {
	var h AllocHistory
	if h.Len() != 0 || h.Launches() != 0 || h.MissRatio() != 0 || h.DenseShare() != 0 {
		t.Fatal("zero history not empty")
	}
	for i := 0; i < historyRing+3; i++ {
		pat := memmodel.Random
		if i%2 == 0 {
			pat = memmodel.Sequential
		}
		h.record(FaultRecord{Pattern: pat, Touched: 100, Missed: int64(i)})
	}
	if h.Launches() != historyRing+3 {
		t.Errorf("Launches() = %d, want %d", h.Launches(), historyRing+3)
	}
	if h.Len() != historyRing {
		t.Errorf("Len() = %d, want %d", h.Len(), historyRing)
	}
	// At(0) is the newest: Missed == historyRing+2.
	if got := h.At(0).Missed; got != historyRing+2 {
		t.Errorf("At(0).Missed = %d, want %d", got, historyRing+2)
	}
	if got := h.At(h.Len() - 1).Missed; got != 3 {
		t.Errorf("oldest Missed = %d, want 3", got)
	}
	// Ring holds Missed 3..10 over Touched 100 each: mean 6.5/100.
	if got, want := h.MissRatio(), 0.065; got != want {
		t.Errorf("MissRatio() = %v, want %v", got, want)
	}
	if got := h.DenseShare(); got != 0.5 {
		t.Errorf("DenseShare() = %v, want 0.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("At(Len()) did not panic")
		}
	}()
	h.At(h.Len())
}

// checkAccounting verifies per-allocation invariants and node-level
// residency-sum consistency. Device capacity may be exceeded by at most
// the pages pinned there: a plan sized to the full device cannot evict
// pinned bystanders, and that bounded overflow is a pre-existing modeling
// artifact the bit-compatibility goldens encode (stats-gpu0 holds 9216
// resident pages on an 8192-page device). Any overflow beyond the pinned
// share is a real accounting bug.
func checkAccounting(t *testing.T, n *Node) {
	t.Helper()
	perDev := make([]int64, len(n.devices))
	pinnedOn := make([]int64, len(n.devices))
	for _, a := range n.allocs {
		a.checkInvariants()
		for d, r := range a.residentOn {
			perDev[d] += r
			if a.advise == AdvisePreferredLocation && a.preferred == d {
				pinnedOn[d] += r
			}
		}
	}
	for i, d := range n.devices {
		if perDev[i] != d.residentPages {
			t.Fatalf("device %d resident mismatch: sum %d, counter %d",
				i, perDev[i], d.residentPages)
		}
		if d.residentPages < 0 {
			t.Fatalf("device %d negative residency %d", i, d.residentPages)
		}
		if d.residentPages > d.CapacityPages()+pinnedOn[i] {
			t.Fatalf("device %d over capacity beyond pinned allowance: %d > %d + %d",
				i, d.residentPages, d.CapacityPages(), pinnedOn[i])
		}
	}
}

// TestEvictionInvariantsProperty drives randomized launch sequences
// through every policy combination and asserts after every decision that
// (a) global page accounting holds and (b) pages pinned by
// AdvisePreferredLocation were never evicted from their preferred device.
func TestEvictionInvariantsProperty(t *testing.T) {
	patterns := []memmodel.Pattern{
		memmodel.Sequential, memmodel.Strided, memmodel.Broadcast, memmodel.Random,
	}
	modes := []memmodel.AccessMode{memmodel.Read, memmodel.Write, memmodel.ReadWrite}

	for _, combo := range policyCombos() {
		combo := combo
		t.Run(combo[0]+"+"+combo[1], func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			n := NewNode(NodeSpec{
				Name:       "prop",
				Devices:    []DeviceSpec{V100Spec("prop/gpu0"), V100Spec("prop/gpu1")},
				HostMemory: 200 * memmodel.GiB,
			})
			if err := n.UseMemoryPolicies(combo[0], combo[1]); err != nil {
				t.Fatalf("UseMemoryPolicies: %v", err)
			}

			// A pinned allocation warmed onto device 0, plus a population of
			// bystanders big enough to force eviction churn.
			pinned, _ := n.Alloc(2 * memmodel.GiB)
			if err := n.SetAdvise(pinned, AdvisePreferredLocation, 0); err != nil {
				t.Fatalf("SetAdvise: %v", err)
			}
			n.Prefetch(pinned, 0, 0)
			pinnedPages := n.ResidentPagesOf(pinned, 0)
			if pinnedPages == 0 {
				t.Fatal("pinned prefetch moved no pages")
			}

			var ids []AllocID
			for i := 0; i < 6; i++ {
				id, err := n.Alloc(memmodel.Bytes(4+rng.Intn(20)) * memmodel.GiB)
				if err != nil {
					t.Fatalf("Alloc: %v", err)
				}
				ids = append(ids, id)
			}

			kc := KernelCost{Name: "prop", Elements: 1 << 18, OpsPerElement: 2}
			var now int64
			for step := 0; step < 60; step++ {
				dev := rng.Intn(2)
				nargs := 1 + rng.Intn(3)
				var args []ArgBinding
				for j := 0; j < nargs; j++ {
					args = append(args, ArgBinding{
						Alloc: ids[rng.Intn(len(ids))],
						Access: memmodel.Access{
							Mode:     modes[rng.Intn(len(modes))],
							Pattern:  patterns[rng.Intn(len(patterns))],
							Fraction: 0.25 + 0.75*rng.Float64(),
							Passes:   1 + rng.Intn(3),
						},
					})
				}
				res, err := n.Launch(dev, 0, kc, args, 0)
				if err != nil {
					t.Fatalf("step %d: Launch: %v", step, err)
				}
				now = int64(res.Interval.End)
				_ = now
				checkAccounting(t, n)
				if got := n.ResidentPagesOf(pinned, 0); got < pinnedPages {
					t.Fatalf("step %d: pinned allocation lost pages: %d -> %d",
						step, pinnedPages, got)
				}
			}
		})
	}
}

// TestEvictVictimsSkipsPinnedAndPlan exercises the victim selector
// directly: pinned allocations and plan members must never lose pages,
// no matter what the policy's ordering says, and the demanded page count
// must come out of the remaining bystanders.
func TestEvictVictimsSkipsPinnedAndPlan(t *testing.T) {
	for _, evictName := range EvictionPolicyNames() {
		t.Run(evictName, func(t *testing.T) {
			n := NewNode(NodeSpec{
				Name:       "victim",
				Devices:    []DeviceSpec{V100Spec("victim/gpu0")},
				HostMemory: 64 * memmodel.GiB,
			})
			if err := n.UseMemoryPolicies("", evictName); err != nil {
				t.Fatalf("UseMemoryPolicies: %v", err)
			}
			d := n.Device(0)

			pinned, _ := n.Alloc(2 * memmodel.GiB)
			planMember, _ := n.Alloc(2 * memmodel.GiB)
			bystander, _ := n.Alloc(4 * memmodel.GiB)
			if err := n.SetAdvise(pinned, AdvisePreferredLocation, 0); err != nil {
				t.Fatalf("SetAdvise: %v", err)
			}
			for _, id := range []AllocID{pinned, planMember, bystander} {
				if _, err := n.Prefetch(id, 0, 0); err != nil {
					t.Fatalf("Prefetch(%d): %v", id, err)
				}
			}
			pinnedBefore := n.ResidentPagesOf(pinned, 0)
			planBefore := n.ResidentPagesOf(planMember, 0)
			byBefore := n.ResidentPagesOf(bystander, 0)

			need := byBefore / 2
			n.epoch++
			n.allocs[planMember].planMark = n.epoch
			n.evictVictims(d, need, 0)

			if got := n.ResidentPagesOf(pinned, 0); got != pinnedBefore {
				t.Errorf("pinned pages evicted: %d -> %d", pinnedBefore, got)
			}
			if got := n.ResidentPagesOf(planMember, 0); got != planBefore {
				t.Errorf("plan-member pages evicted: %d -> %d", planBefore, got)
			}
			if got := n.ResidentPagesOf(bystander, 0); got != byBefore-need {
				t.Errorf("bystander pages %d -> %d, want %d", byBefore, got, byBefore-need)
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// newSweepNode builds a single-V100 node whose live allocation equals
// factor × device memory, returning the allocation to sweep.
func newSweepNode(t testing.TB, prefetch, evict string, factor float64) (*Node, AllocID) {
	t.Helper()
	n := NewNode(NodeSpec{
		Name:       "sweep",
		Devices:    []DeviceSpec{V100Spec("sweep/gpu0")},
		HostMemory: 512 * memmodel.GiB,
	})
	if err := n.UseMemoryPolicies(prefetch, evict); err != nil {
		t.Fatalf("UseMemoryPolicies(%q, %q): %v", prefetch, evict, err)
	}
	size := memmodel.Bytes(factor * float64(n.Spec().TotalDeviceMemory()))
	id, err := n.Alloc(size)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	return n, id
}

// sweepLaunch runs `launches` sequential sweeps over the allocation and
// returns the mean wall time per launch.
func sweepLaunch(t testing.TB, n *Node, id AllocID, pattern memmodel.Pattern, launches int) int64 {
	t.Helper()
	kc := KernelCost{Name: "sweep", Elements: 1 << 20, OpsPerElement: 2}
	var ready int64
	for i := 0; i < launches; i++ {
		res, err := n.Launch(0, 0, kc, []ArgBinding{
			{Alloc: id, Access: memmodel.Access{
				Mode: memmodel.Read, Pattern: pattern, Fraction: 1, Passes: 1,
			}},
		}, 0)
		if err != nil {
			t.Fatalf("Launch %d: %v", i, err)
		}
		ready = int64(res.Interval.End)
	}
	return ready / int64(launches)
}

// TestStrideShiftsCliff is the tentpole acceptance check in miniature: at
// 1.5× oversubscription on a sequential sweep, stride-aware prefetch must
// model ≥2× less time per launch than the LRU baseline, and the collapse
// cliff must sit at higher pressure under stride than under eager.
func TestStrideShiftsCliff(t *testing.T) {
	const launches = 8

	base, baseID := newSweepNode(t, "eager", "lru", 1.5)
	baseNs := sweepLaunch(t, base, baseID, memmodel.Sequential, launches)

	stride, strideID := newSweepNode(t, "stride", "lru", 1.5)
	strideNs := sweepLaunch(t, stride, strideID, memmodel.Sequential, launches)

	if baseNs < 2*strideNs {
		t.Errorf("at 1.5x oversub: baseline %d ns/launch, stride %d ns/launch — want >=2x reduction",
			baseNs, strideNs)
	}

	// The cliff shift: at pressure 3.0 (past sequential's static threshold
	// 2.6, below stride's shifted 3.9) eager storms while stride streams.
	eagerN, eagerID := newSweepNode(t, "eager", "lru", 3.0)
	res, err := eagerN.Launch(0, 0, KernelCost{Name: "k", Elements: 1 << 20, OpsPerElement: 2},
		[]ArgBinding{{Alloc: eagerID, Access: memmodel.Access{
			Mode: memmodel.Read, Pattern: memmodel.Sequential, Fraction: 1, Passes: 1,
		}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != Storm {
		t.Errorf("eager at 3.0x: regime %v, want storm", res.Regime)
	}

	strideN, strideID2 := newSweepNode(t, "stride", "lru", 3.0)
	res, err = strideN.Launch(0, 0, KernelCost{Name: "k", Elements: 1 << 20, OpsPerElement: 2},
		[]ArgBinding{{Alloc: strideID2, Access: memmodel.Access{
			Mode: memmodel.Read, Pattern: memmodel.Sequential, Fraction: 1, Passes: 1,
		}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regime != Streaming {
		t.Errorf("stride at 3.0x: regime %v, want streaming (shifted cliff)", res.Regime)
	}
}

func TestPredictStall(t *testing.T) {
	spec := NodeSpec{
		Name:       "stall",
		Devices:    []DeviceSpec{V100Spec("stall/gpu0")},
		HostMemory: 512 * memmodel.GiB,
	}
	devMem := spec.TotalDeviceMemory()

	n := NewNode(spec)
	// Fits comfortably: no predicted stall.
	if got := n.PredictStall(0, devMem/2, memmodel.Sequential); got != 0 {
		t.Errorf("resident PredictStall = %d, want 0", got)
	}

	// Oversubscribed: positive stall, and monotone in added pressure.
	low := n.PredictStall(0, devMem*3/2, memmodel.Sequential)
	high := n.PredictStall(4*devMem, devMem*3/2, memmodel.Sequential)
	if low <= 0 {
		t.Errorf("streaming PredictStall = %d, want > 0", low)
	}
	if high <= low {
		t.Errorf("PredictStall not increasing with pressure: %d <= %d", high, low)
	}

	// A stride-prefetching node predicts cheaper streaming stalls than the
	// demand-paging baseline — placement can prefer it.
	s := NewNode(spec)
	if err := s.UseMemoryPolicies("stride", "lru"); err != nil {
		t.Fatal(err)
	}
	if es, ss := n.PredictStall(0, devMem*3/2, memmodel.Sequential),
		s.PredictStall(0, devMem*3/2, memmodel.Sequential); ss >= es {
		t.Errorf("stride stall %d >= eager stall %d, want cheaper", ss, es)
	}

	// The allocation-pressure escalation mirrors Launch: ballast on the
	// node raises the prediction for substantial working sets.
	b := NewNode(spec)
	if _, err := b.Alloc(100 * memmodel.GiB); err != nil {
		t.Fatal(err)
	}
	if got := b.PredictStall(0, devMem/2, memmodel.Sequential); got <= 0 {
		t.Errorf("ballasted PredictStall = %d, want > 0 (storm from allocation pressure)", got)
	}
}

func TestPolicyNamesDeterministic(t *testing.T) {
	// Flag help and error messages embed these lists; keep them sorted.
	for _, names := range [][]string{PrefetchPolicyNames(), EvictionPolicyNames()} {
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Fatalf("names not sorted: %v", names)
			}
		}
	}
	if fmt.Sprint(PrefetchPolicyNames()) != "[adaptive eager stride]" {
		t.Errorf("prefetch names = %v", PrefetchPolicyNames())
	}
	if fmt.Sprint(EvictionPolicyNames()) != "[lru stream working-set]" {
		t.Errorf("eviction names = %v", EvictionPolicyNames())
	}
}
