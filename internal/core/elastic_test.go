package core

// Fleet-elasticity tests: workers joining and retiring from a RUNNING
// controller. The contract under test is the one DESIGN.md §5.9 states:
// AddWorker makes a standby node schedulable for subsequent CEs,
// RetireWorker drains and MIGRATES sole copies instead of recomputing
// them (failover counter untouched), and a retire mid-workload is
// bit-identical to the static-fleet run.

import (
	"testing"
	"time"

	"grout/internal/cluster"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// replicaHolders counts, per worker, how many arrays hold an up-to-date
// replica there.
func replicaHolders(ctl *Controller) map[cluster.NodeID]int {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	holders := map[cluster.NodeID]int{}
	for _, arr := range ctl.arrays {
		for w := range arr.upToDate {
			holders[w]++
		}
	}
	return holders
}

// elasticLaunch allocates a fresh array, writes a recognizable pattern
// and runs one relu over it, so the array ends up placed somewhere.
func elasticLaunch(t *testing.T, s *ControllerSession, bias float64) dag.ArrayID {
	t.Helper()
	const n = 32
	a, err := s.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	buf := kernels.NewBuffer(memmodel.Float32, n)
	for i := 0; i < n; i++ {
		buf.Set(i, float64(i%7)-3+bias)
	}
	if _, err := s.HostWrite(a, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(a), ScalarRef(float64(n))}}); err != nil {
		t.Fatal(err)
	}
	return a
}

// A controller provisioned over a 4-worker fabric with two workers retired
// at start schedules only on its members; AddWorker activates a standby
// node for every CE admitted after the call.
func TestElasticAddWorkerGrowsPlacement(t *testing.T) {
	clu := cluster.New(cluster.PaperSpec(4))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	t.Cleanup(func() { ctl.Close() })
	for _, w := range []cluster.NodeID{3, 4} {
		if err := ctl.RetireWorker(w); err != nil {
			t.Fatalf("RetireWorker(%v) at start: %v", w, err)
		}
	}
	s := NewControllerSession(ctl, "elastic-add", SessionLimits{})

	if m := ctl.Members(); len(m) != 2 {
		t.Fatalf("rostered members = %v, want the 2-node roster", m)
	}
	for i := 0; i < 6; i++ {
		elasticLaunch(t, s, float64(i))
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	holders := replicaHolders(ctl)
	if holders[3] != 0 || holders[4] != 0 {
		t.Fatalf("standby workers hold replicas before AddWorker: %v", holders)
	}

	// Guard rails: double-add, fleet-foreign add.
	if err := ctl.AddWorker(3); err != nil {
		t.Fatalf("AddWorker(3): %v", err)
	}
	if err := ctl.AddWorker(3); err == nil {
		t.Fatal("adding a current member succeeded")
	}
	if err := ctl.AddWorker(9); err == nil {
		t.Fatal("adding a worker outside the provisioned fleet succeeded")
	}
	if m := ctl.Members(); len(m) != 3 {
		t.Fatalf("members after AddWorker = %v, want 3", m)
	}

	for i := 0; i < 6; i++ {
		elasticLaunch(t, s, float64(10+i))
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	if holders := replicaHolders(ctl); holders[3] == 0 {
		t.Fatalf("joined worker 3 was never scheduled: %v", holders)
	}
}

// Retirement migrates every sole copy to a survivor, leaves the data
// readable and correct, never touches the failover counter, and returns
// the worker to the standby pool (AddWorker re-activates it).
func TestElasticRetireWorkerMigratesSoleCopies(t *testing.T) {
	ctl := sessSystem(t)
	s := NewControllerSession(ctl, "elastic-retire", SessionLimits{})

	const arrays = 8
	ids := make([]dag.ArrayID, arrays)
	for i := range ids {
		ids[i] = elasticLaunch(t, s, float64(i))
	}
	if err := ctl.Drain(); err != nil {
		t.Fatal(err)
	}
	// Round-robin over 4 workers spreads the 8 sole copies; worker 2 must
	// hold some, or the retire below would migrate nothing.
	if holders := replicaHolders(ctl); holders[2] == 0 {
		t.Fatalf("worker 2 holds nothing; placement changed under the test: %v", holders)
	}

	if err := ctl.RetireWorker(2); err != nil {
		t.Fatal(err)
	}
	if holders := replicaHolders(ctl); holders[2] != 0 {
		t.Fatalf("retired worker still holds replicas: %v", holders)
	}
	if m := ctl.Members(); len(m) != 3 {
		t.Fatalf("members after retire = %v, want 3", m)
	}
	if f := ctl.Failovers(); f != 0 {
		t.Fatalf("retirement bumped the failover counter to %d; it is not a death", f)
	}
	// The migrated data is intact: relu of the known pattern.
	for i, id := range ids {
		got, _, err := s.HostRead(id)
		if err != nil {
			t.Fatalf("array %d after retire: %v", i, err)
		}
		for j := 0; j < 32; j++ {
			want := float64(j%7) - 3 + float64(i)
			if want < 0 {
				want = 0
			}
			if got.At(j) != want {
				t.Fatalf("array %d[%d] = %g after retire, want %g", i, j, got.At(j), want)
			}
		}
	}

	// Guard rails and the standby round trip.
	if err := ctl.RetireWorker(2); err == nil {
		t.Fatal("retiring a non-member succeeded")
	}
	if err := ctl.AddWorker(2); err != nil {
		t.Fatalf("re-activating the retired worker: %v", err)
	}
	for _, w := range []cluster.NodeID{1, 3, 4} {
		if err := ctl.RetireWorker(w); err != nil {
			t.Fatalf("retire %v: %v", w, err)
		}
	}
	if err := ctl.RetireWorker(2); err == nil {
		t.Fatal("retiring the last live member succeeded")
	}
}

// The acceptance gate: a worker retired mid-workload yields results
// bit-identical to the static-fleet run. Kernels are element-wise
// deterministic, so migration (unlike recomputation) must not perturb a
// single bit.
func TestElasticRetireMidWorkloadBitIdentical(t *testing.T) {
	const n, rounds = 64, 12
	run := func(retire bool) *kernels.Buffer {
		clu := cluster.New(cluster.PaperSpec(4))
		fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
		ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
		defer ctl.Close()
		s := NewControllerSession(ctl, "mid", SessionLimits{})
		a, err := s.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.NewArray(memmodel.Float32, n)
		if err != nil {
			t.Fatal(err)
		}
		init := kernels.NewBuffer(memmodel.Float32, n)
		for i := 0; i < n; i++ {
			init.Set(i, float64(i%11)-5)
		}
		if _, err := s.HostWrite(a, init); err != nil {
			t.Fatal(err)
		}
		if _, err := s.HostWrite(b, init); err != nil {
			t.Fatal(err)
		}
		nArg := ScalarRef(float64(n))
		for i := 0; i < rounds; i++ {
			if retire && i == rounds/2 {
				if err := ctl.RetireWorker(2); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Submit(Invocation{Kernel: "axpy",
				Args: []ArgRef{ArrRef(a), ArrRef(b), ScalarRef(0.5), nArg}}); err != nil {
				t.Fatal(err)
			}
			if i%3 == 1 {
				if _, err := s.Submit(Invocation{Kernel: "relu",
					Args: []ArgRef{ArrRef(a), nArg}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, _, err := s.HostRead(a)
		if err != nil {
			t.Fatal(err)
		}
		if retire && ctl.Failovers() != 0 {
			t.Fatalf("mid-workload retire fell back to failover (%d)", ctl.Failovers())
		}
		return got
	}
	want := run(false)
	got := run(true)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("retire-mid-workload run diverged from the static fleet by %g", d)
	}
}

// Regression: AdmissionWaitP99 used to freeze over the first
// admSampleCap waits — a long-lived tenant whose early queue was empty
// reported a rosy p99 forever, no matter how bad admission later got.
// The reservoir keeps sampling uniformly, so late waits must dominate
// the quantile once they dominate the stream; and it is seeded from the
// session name, so same-named sessions report bit-identical stats.
func TestSessionAdmissionWaitReservoirTracksLateWaits(t *testing.T) {
	ctl := sessSystem(t)
	s := NewControllerSession(ctl, "reservoir", SessionLimits{})
	const early, late = admSampleCap, 3 * admSampleCap
	for i := 0; i < early; i++ {
		s.NoteAdmissionWait(time.Microsecond)
	}
	if p99 := s.Stats().AdmissionWaitP99; p99 != time.Microsecond {
		t.Fatalf("p99 over uniform early waits = %v, want 1µs", p99)
	}
	for i := 0; i < late; i++ {
		s.NoteAdmissionWait(time.Millisecond)
	}
	// Millisecond waits are now 3/4 of the stream, so a uniform sample
	// fills ~75% of the reservoir with them and the 99th percentile is a
	// late wait. The frozen-cap bug reported 1µs here forever.
	if p99 := s.Stats().AdmissionWaitP99; p99 != time.Millisecond {
		t.Fatalf("p99 after late waits dominate = %v, want 1ms", p99)
	}
	s2 := NewControllerSession(ctl, "reservoir", SessionLimits{})
	for i := 0; i < early; i++ {
		s2.NoteAdmissionWait(time.Microsecond)
	}
	for i := 0; i < late; i++ {
		s2.NoteAdmissionWait(time.Millisecond)
	}
	if a, b := s.Stats().AdmissionWaitP99, s2.Stats().AdmissionWaitP99; a != b {
		t.Fatalf("same-named sessions diverged: %v vs %v", a, b)
	}
}
