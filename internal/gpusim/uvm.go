package gpusim

import (
	"errors"
	"fmt"

	"grout/internal/memmodel"
	"grout/internal/sim"
)

// ErrUnknownAdvise is returned (wrapped) by SetAdvise for values outside
// the defined Advise enum; hostile or stale wire input must not silently
// become AdviseNone.
var ErrUnknownAdvise = errors.New("gpusim: unknown advise value")

// ErrBadPreferredDevice is returned (wrapped) by SetAdvise when
// AdvisePreferredLocation names a device the node does not have.
var ErrBadPreferredDevice = errors.New("gpusim: bad preferred device")

// AllocID identifies a UVM allocation within a node. GrOUT's data registry
// keys global arrays by the same ID on every node that holds a replica.
type AllocID int64

// Advise mirrors cudaMemAdvise values relevant to the simulation.
type Advise int

const (
	// AdviseNone leaves placement to demand paging.
	AdviseNone Advise = iota
	// AdvisePreferredLocation pins pages to a device: the eviction engine
	// avoids evicting them and the prefetcher pulls them eagerly.
	AdvisePreferredLocation
	// AdviseReadMostly replicates read-only pages on access instead of
	// migrating them, defusing FALL-page ping-pong for broadcast data.
	AdviseReadMostly
)

// Valid reports whether a is a defined Advise value.
func (a Advise) Valid() bool {
	return a >= AdviseNone && a <= AdviseReadMostly
}

func (a Advise) String() string {
	switch a {
	case AdvisePreferredLocation:
		return "preferred-location"
	case AdviseReadMostly:
		return "read-mostly"
	default:
		return "none"
	}
}

// hostLocation marks pages resident in host memory.
const hostLocation = -1

// alloc tracks one UVM allocation's state on a node: how many of its pages
// sit on each device (the remainder implicitly on the host), dirty counts,
// and tuning hints.
type alloc struct {
	id    AllocID
	size  memmodel.Bytes
	pages int64
	// residentOn[d] is the number of this allocation's pages resident on
	// device d. Pages not on any device are on the host. Array-granular
	// accounting (counts, not bitmaps) keeps 160 GiB simulations cheap
	// while preserving capacity and traffic dynamics.
	residentOn []int64
	// dirtyOn[d] counts device-resident pages that must be written back
	// on eviction.
	dirtyOn []int64
	// lastUse[d] is the last virtual time a kernel on device d touched
	// the allocation; drives LRU victim selection.
	lastUse []sim.VirtualTime
	advise  Advise
	// preferred is the device index for AdvisePreferredLocation.
	preferred int
	// hist is the online fault/reuse history ring feeding adaptive
	// prefetch and eviction policies.
	hist AllocHistory
	// slot is the allocation's index in Node.live; planMark equals
	// Node.epoch while it is a member of the launch in progress.
	slot     int
	planMark uint64
}

func newAlloc(id AllocID, size memmodel.Bytes, devices int) *alloc {
	counts := make([]int64, 2*devices)
	return &alloc{
		id:         id,
		size:       size,
		pages:      size.Pages(),
		residentOn: counts[:devices:devices],
		dirtyOn:    counts[devices:],
		lastUse:    make([]sim.VirtualTime, devices),
		preferred:  hostLocation,
	}
}

// hostPages reports how many pages currently reside on the host.
func (a *alloc) hostPages() int64 {
	n := a.pages
	for _, r := range a.residentOn {
		n -= r
	}
	return n
}

// residentBytes reports bytes resident on device d.
func (a *alloc) residentBytes(d int) memmodel.Bytes {
	return memmodel.Bytes(a.residentOn[d]) * memmodel.PageSize
}

// checkInvariants panics if page accounting went inconsistent; used by
// tests and cheap enough to run after every mutation in race of bugs.
func (a *alloc) checkInvariants() {
	var sum int64
	for d, r := range a.residentOn {
		if r < 0 {
			panic(fmt.Sprintf("gpusim: alloc %d negative residency on dev %d", a.id, d))
		}
		if a.dirtyOn[d] < 0 || a.dirtyOn[d] > r {
			panic(fmt.Sprintf("gpusim: alloc %d dirty %d exceeds resident %d on dev %d",
				a.id, a.dirtyOn[d], r, d))
		}
		sum += r
	}
	if sum > a.pages {
		panic(fmt.Sprintf("gpusim: alloc %d resident pages %d exceed allocation %d",
			a.id, sum, a.pages))
	}
}
