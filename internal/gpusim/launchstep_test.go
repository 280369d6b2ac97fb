package gpusim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"grout/internal/memmodel"
	"grout/internal/sim"
)

// A warmed node's launch allocates nothing: plans live in the node's slab,
// plan membership is an epoch mark and victims come from a reused heap —
// also when every launch evicts, under each eviction policy.
func TestLaunchAllocBudget(t *testing.T) {
	seq := func(mode memmodel.AccessMode) memmodel.Access {
		return memmodel.Access{Mode: mode, Pattern: memmodel.Sequential, Fraction: 1, Passes: 1}
	}
	for _, evict := range EvictionPolicyNames() {
		t.Run(evict, func(t *testing.T) {
			n := NewNode(NodeSpec{
				Name:       "budget",
				Devices:    []DeviceSpec{V100Spec("budget/gpu0")},
				HostMemory: 512 * memmodel.GiB,
			})
			if err := n.UseMemoryPolicies("", evict); err != nil {
				t.Fatal(err)
			}
			// Six 6 GiB arrays on a 16 GiB device: a launch over two of
			// them always evicts whichever others are resident.
			var ids []AllocID
			for i := 0; i < 6; i++ {
				id, err := n.Alloc(6 * memmodel.GiB)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			small, err := n.Alloc(64 * memmodel.MiB)
			if err != nil {
				t.Fatal(err)
			}
			k := KernelCost{Name: "k", Elements: 1 << 20, OpsPerElement: 2}
			var ready sim.VirtualTime
			step := 0
			launch := func(args []ArgBinding) {
				res, err := n.Launch(0, 0, k, args, ready)
				if err != nil {
					t.Fatal(err)
				}
				ready = res.Interval.End
			}
			// Two bindings of one array exercise the merge; the second
			// launch shape fits and evicts nothing.
			evicting := make([]ArgBinding, 3)
			fitting := []ArgBinding{{Alloc: small, Access: seq(memmodel.ReadWrite)}}
			run := func() {
				a, b := ids[step%len(ids)], ids[(step+3)%len(ids)]
				step++
				evicting[0] = ArgBinding{Alloc: a, Access: seq(memmodel.Read)}
				evicting[1] = ArgBinding{Alloc: b, Access: seq(memmodel.Write)}
				evicting[2] = ArgBinding{Alloc: a, Access: seq(memmodel.Write)}
				launch(evicting)
				launch(fitting)
			}
			for i := 0; i < 2*len(ids); i++ {
				run() // warm: the slabs reach their working size
			}
			evictedBefore := n.Device(0).pagesEvicted
			if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
				t.Errorf("%v allocations per launch pair, want 0", allocs)
			}
			if n.Device(0).pagesEvicted == evictedBefore {
				t.Fatal("the measured launches evicted nothing")
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// referenceLess is the victim order as each policy's comparator stated it
// before ranks: a full sort with these is the reference the heap must
// reproduce exactly.
func referenceLess(policy string) func(a, b VictimView) bool {
	lru := func(a, b VictimView) bool {
		if a.LastUse != b.LastUse {
			return a.LastUse < b.LastUse
		}
		return a.Alloc < b.Alloc
	}
	switch policy {
	case "stream":
		return func(a, b VictimView) bool {
			as, bs := denseShareOf(a.Hist), denseShareOf(b.Hist)
			if as != bs {
				return as > bs
			}
			return lru(a, b)
		}
	case "working-set":
		return func(a, b VictimView) bool {
			af, bf := launchesOf(a.Hist), launchesOf(b.Hist)
			if af != bf {
				return af < bf
			}
			return lru(a, b)
		}
	}
	return lru
}

// referenceEvict is victim selection as a full sort of every candidate.
func referenceEvict(n *Node, d *Device, inPlan map[AllocID]bool, need int64, less func(a, b VictimView) bool) {
	dev := d.index
	var victims []VictimView
	for _, a := range n.allocs {
		if inPlan[a.id] || a.residentOn[dev] == 0 {
			continue
		}
		if a.advise == AdvisePreferredLocation && a.preferred == dev {
			continue
		}
		victims = append(victims, VictimView{Alloc: a.id, LastUse: a.lastUse[dev],
			Resident: a.residentOn[dev], Dirty: a.dirtyOn[dev], Hist: &a.hist})
	}
	sort.Slice(victims, func(i, j int) bool { return less(victims[i], victims[j]) })
	for _, v := range victims {
		if need <= 0 {
			return
		}
		a := n.allocs[v.Alloc]
		take := min(a.residentOn[dev], need)
		dirtyDrop := a.dirtyOn[dev]
		a.residentOn[dev] -= take
		if a.dirtyOn[dev] > a.residentOn[dev] {
			d.pagesWrittenBack += dirtyDrop - a.residentOn[dev]
			a.dirtyOn[dev] = a.residentOn[dev]
		}
		d.residentPages -= take
		d.pagesEvicted += take
		need -= take
	}
}

// randomVictimNode builds a two-device node whose allocations carry random
// residency, dirtiness, last-use times drawn from a few values (ties),
// histories of random patterns and lengths, and preferred-location pins.
// The same seed builds the same node.
func randomVictimNode(t *testing.T, seed int64, evict string) *Node {
	rng := rand.New(rand.NewSource(seed))
	n := NewNode(NodeSpec{
		Name:       "victims",
		Devices:    []DeviceSpec{V100Spec("victims/gpu0"), V100Spec("victims/gpu1")},
		HostMemory: 1 << 50,
	})
	if err := n.UseMemoryPolicies("", evict); err != nil {
		t.Fatal(err)
	}
	patterns := []memmodel.Pattern{memmodel.Sequential, memmodel.Strided, memmodel.Random, memmodel.Broadcast}
	for i, count := 0, 5+rng.Intn(40); i < count; i++ {
		id, err := n.Alloc(memmodel.Bytes(2+rng.Intn(64)) * memmodel.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		a := n.allocs[id]
		for dev := range n.devices {
			if rng.Intn(4) == 0 {
				continue // not resident here
			}
			r := 1 + rng.Int63n(a.pages/2) // two devices never hold more than all
			a.residentOn[dev] = r
			a.dirtyOn[dev] = rng.Int63n(r + 1)
			a.lastUse[dev] = sim.VirtualTime(rng.Intn(5))
			n.devices[dev].residentPages += r
		}
		for h := rng.Intn(12); h > 0; h-- {
			a.hist.record(FaultRecord{Pattern: patterns[rng.Intn(len(patterns))]})
		}
		if rng.Intn(6) == 0 {
			a.advise, a.preferred = AdvisePreferredLocation, rng.Intn(len(n.devices))
		}
	}
	return n
}

// Heap victim selection evicts exactly what a full sort of every
// candidate in the policy's order evicts: the same pages from the same
// allocations, the same write-backs — over random allocation sets with
// last-use ties, pinned allocations and plan members, for every policy.
func TestVictimSelectionMatchesFullSort(t *testing.T) {
	for _, evict := range EvictionPolicyNames() {
		for seed := int64(1); seed <= 200; seed++ {
			heap := randomVictimNode(t, seed, evict)
			ref := randomVictimNode(t, seed, evict)
			rng := rand.New(rand.NewSource(seed * 7919))
			dev := rng.Intn(len(heap.devices))

			// Mark a random subset as the launch's plan on both.
			heap.epoch++
			inPlan := map[AllocID]bool{}
			for _, a := range heap.live {
				if rng.Intn(5) == 0 {
					a.planMark = heap.epoch
					inPlan[a.id] = true
				}
			}
			need := rng.Int63n(heap.devices[dev].residentPages + 2)

			heap.evictVictims(heap.Device(dev), need, 0)
			referenceEvict(ref, ref.Device(dev), inPlan, need, referenceLess(evict))

			where := fmt.Sprintf("%s seed %d dev %d need %d", evict, seed, dev, need)
			for id, a := range heap.allocs {
				b := ref.allocs[id]
				for d := range heap.devices {
					if a.residentOn[d] != b.residentOn[d] || a.dirtyOn[d] != b.dirtyOn[d] {
						t.Fatalf("%s: alloc %d dev %d resident/dirty %d/%d, reference %d/%d", where,
							id, d, a.residentOn[d], a.dirtyOn[d], b.residentOn[d], b.dirtyOn[d])
					}
				}
			}
			hd, rd := heap.Device(dev), ref.Device(dev)
			if hd.pagesEvicted != rd.pagesEvicted || hd.pagesWrittenBack != rd.pagesWrittenBack {
				t.Fatalf("%s: evicted/written back %d/%d, reference %d/%d", where,
					hd.pagesEvicted, hd.pagesWrittenBack, rd.pagesEvicted, rd.pagesWrittenBack)
			}
			if err := heap.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}
