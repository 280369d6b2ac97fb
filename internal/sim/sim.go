// Package sim provides the virtual-time substrate used by the
// GPU, network and cluster simulators. All simulated durations are
// expressed as virtual nanoseconds (VirtualTime); nothing in this package
// ever sleeps or reads the wall clock.
//
// The building block is the Timeline: a single serially-occupied resource
// (a CUDA stream, a copy engine, a NIC link). Work is "reserved" on a
// timeline: the caller states the earliest time the work may start and its
// duration, and the timeline returns the actual [start, end) interval after
// queueing behind previously reserved work. There is no event queue: the
// simulators (internal/cluster's links, internal/gpusim's devices and its
// UVM fault model) compute each operation's duration and reserve it.
package sim

import (
	"fmt"
	"math"
	"time"
)

// VirtualTime is a point in simulated time, in nanoseconds since the start
// of the simulation. It is deliberately a distinct type from time.Duration
// so that wall-clock and virtual quantities cannot be mixed by accident.
type VirtualTime int64

// Infinity is a virtual time later than any reachable event.
const Infinity VirtualTime = math.MaxInt64

// Duration converts a virtual-time span to a time.Duration for reporting.
func (t VirtualTime) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the virtual time as floating-point seconds.
func (t VirtualTime) Seconds() float64 { return float64(t) / 1e9 }

// String formats the virtual time using time.Duration notation.
func (t VirtualTime) String() string {
	if t == Infinity {
		return "+inf"
	}
	return time.Duration(t).String()
}

// Max returns the later of a and b.
func Max(a, b VirtualTime) VirtualTime {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b VirtualTime) VirtualTime {
	if a < b {
		return a
	}
	return b
}

// Interval is a half-open [Start, End) span of virtual time.
type Interval struct {
	Start VirtualTime
	End   VirtualTime
}

// Length returns End-Start.
func (iv Interval) Length() VirtualTime { return iv.End - iv.Start }

func (iv Interval) String() string {
	return fmt.Sprintf("[%s, %s)", iv.Start, iv.End)
}

// Timeline models a serially occupied resource. The zero value is a free
// timeline starting at virtual time zero.
type Timeline struct {
	name string
	// freeAt is the earliest time new work can start.
	freeAt VirtualTime
	// busy accumulates total occupied time, for utilization reporting.
	busy VirtualTime
	// reservations counts Reserve calls.
	reservations int
}

// NewTimeline returns a named timeline that is free from time zero.
func NewTimeline(name string) *Timeline {
	return &Timeline{name: name}
}

// Name returns the timeline's diagnostic name.
func (tl *Timeline) Name() string { return tl.name }

// FreeAt reports the earliest time at which new work could start.
func (tl *Timeline) FreeAt() VirtualTime { return tl.freeAt }

// BusyTime reports the cumulative occupied time.
func (tl *Timeline) BusyTime() VirtualTime { return tl.busy }

// Reservations reports how many work items have been reserved.
func (tl *Timeline) Reservations() int { return tl.reservations }

// Reserve queues work of the given duration that may not start before
// earliest, and returns the interval actually occupied. A negative duration
// is treated as zero.
func (tl *Timeline) Reserve(earliest, duration VirtualTime) Interval {
	if duration < 0 {
		duration = 0
	}
	start := Max(earliest, tl.freeAt)
	end := start + duration
	tl.freeAt = end
	tl.busy += duration
	tl.reservations++
	return Interval{Start: start, End: end}
}

// AdvanceTo moves the timeline's free point forward to at least t without
// accounting busy time (models idling until an external event).
func (tl *Timeline) AdvanceTo(t VirtualTime) {
	if t > tl.freeAt {
		tl.freeAt = t
	}
}

// Reset returns the timeline to its initial free state.
func (tl *Timeline) Reset() {
	tl.freeAt = 0
	tl.busy = 0
	tl.reservations = 0
}

// Utilization reports busy time divided by the horizon (the timeline's
// current free point). Returns 0 for an unused timeline.
func (tl *Timeline) Utilization() float64 {
	if tl.freeAt == 0 {
		return 0
	}
	return float64(tl.busy) / float64(tl.freeAt)
}
