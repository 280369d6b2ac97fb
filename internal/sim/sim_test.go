package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestTimelineReserveSequencing(t *testing.T) {
	tl := NewTimeline("stream0")
	iv1 := tl.Reserve(0, 100)
	if iv1.Start != 0 || iv1.End != 100 {
		t.Fatalf("first reservation = %v, want [0,100)", iv1)
	}
	// Second item wants to start at 50 but must queue behind the first.
	iv2 := tl.Reserve(50, 25)
	if iv2.Start != 100 || iv2.End != 125 {
		t.Fatalf("queued reservation = %v, want [100,125)", iv2)
	}
	// Third item arrives after the timeline is idle: gap is allowed.
	iv3 := tl.Reserve(1000, 10)
	if iv3.Start != 1000 || iv3.End != 1010 {
		t.Fatalf("late reservation = %v, want [1000,1010)", iv3)
	}
	if got := tl.BusyTime(); got != 135 {
		t.Fatalf("busy time = %v, want 135", got)
	}
	if got := tl.Reservations(); got != 3 {
		t.Fatalf("reservations = %d, want 3", got)
	}
}

func TestTimelineNegativeDuration(t *testing.T) {
	tl := NewTimeline("x")
	iv := tl.Reserve(10, -5)
	if iv.Start != 10 || iv.End != 10 {
		t.Fatalf("negative duration reservation = %v, want empty at 10", iv)
	}
}

func TestTimelineAdvanceToAndReset(t *testing.T) {
	tl := NewTimeline("x")
	tl.Reserve(0, 10)
	tl.AdvanceTo(50)
	if tl.FreeAt() != 50 {
		t.Fatalf("FreeAt after AdvanceTo = %v, want 50", tl.FreeAt())
	}
	tl.AdvanceTo(20) // no-op backwards
	if tl.FreeAt() != 50 {
		t.Fatalf("AdvanceTo moved backwards")
	}
	tl.Reset()
	if tl.FreeAt() != 0 || tl.BusyTime() != 0 || tl.Reservations() != 0 {
		t.Fatalf("Reset did not clear state: %+v", tl)
	}
}

func TestTimelineUtilization(t *testing.T) {
	tl := NewTimeline("x")
	if tl.Utilization() != 0 {
		t.Fatalf("fresh timeline utilization != 0")
	}
	tl.Reserve(0, 50)
	tl.AdvanceTo(100)
	if got := tl.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

// Property: reservations never overlap and never start before requested.
func TestTimelineNoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := NewTimeline("p")
		var prevEnd VirtualTime
		for i := 0; i < int(n%64)+1; i++ {
			earliest := VirtualTime(rng.Int63n(1000))
			dur := VirtualTime(rng.Int63n(100))
			iv := tl.Reserve(earliest, dur)
			if iv.Start < earliest || iv.Start < prevEnd || iv.End != iv.Start+dur {
				return false
			}
			prevEnd = iv.End
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeHelpers(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatalf("Max wrong")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatalf("Min wrong")
	}
	if VirtualTime(1500000000).Seconds() != 1.5 {
		t.Fatalf("Seconds wrong")
	}
	if VirtualTime(time.Second.Nanoseconds()).Duration() != time.Second {
		t.Fatalf("Duration wrong")
	}
	if Infinity.String() != "+inf" {
		t.Fatalf("Infinity string = %q", Infinity.String())
	}
	iv := Interval{Start: 10, End: 25}
	if iv.Length() != 15 {
		t.Fatalf("interval length = %v", iv.Length())
	}
	if iv.String() == "" {
		t.Fatalf("interval string empty")
	}
}
