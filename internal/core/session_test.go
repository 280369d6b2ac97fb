package core

import (
	"errors"
	"math"
	"testing"

	"grout/internal/cluster"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

func sessSystem(t *testing.T) *Controller {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(4))
	fab := NewLocalFabric(clu, kernels.StdRegistry(), true)
	ctl := NewController(fab, policy.NewRoundRobin(), Options{Numeric: true})
	t.Cleanup(func() { ctl.Close() })
	return ctl
}

// Two sessions allocate the same local IDs; they must land on different
// global arrays, and neither session can name the other's.
func TestSessionNamespaceIsolation(t *testing.T) {
	ctl := sessSystem(t)
	s1 := NewControllerSession(ctl, "t1", SessionLimits{})
	s2 := NewControllerSession(ctl, "t2", SessionLimits{})

	const n = 64
	a1, err := s1.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s2.NewArray(memmodel.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("local IDs should be session-scoped: got %d and %d", a1, a2)
	}
	if s1.Array(a1).ID == s2.Array(a2).ID {
		t.Fatalf("local ID %d resolved to the same global array for both sessions", a1)
	}

	init := kernels.NewBuffer(memmodel.Float32, n)
	nArg := ScalarRef(float64(n))
	for i := 0; i < n; i++ {
		init.Set(i, float64(i))
	}
	if _, err := s1.HostWrite(a1, init); err != nil {
		t.Fatal(err)
	}
	init.Fill(-3)
	if _, err := s2.HostWrite(a2, init); err != nil {
		t.Fatal(err)
	}
	// t1 scales its array; t2's must be untouched.
	if _, err := s1.Submit(Invocation{Kernel: "scale",
		Args: []ArgRef{ArrRef(a1), ArrRef(a1), ScalarRef(2), nArg}}); err != nil {
		t.Fatal(err)
	}
	got1, _, err := s1.HostRead(a1)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := s2.HostRead(a2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got1.At(i) != 2*float64(i) {
			t.Fatalf("t1[%d] = %g, want %g", i, got1.At(i), 2*float64(i))
		}
		if got2.At(i) != -3 {
			t.Fatalf("t2[%d] = %g, want -3", i, got2.At(i))
		}
	}

	// Cross-tenant references must fail loudly, not alias.
	bogus := a1 + 100
	if _, err := s1.Submit(Invocation{Kernel: "relu",
		Args: []ArgRef{ArrRef(bogus), nArg}}); err == nil {
		t.Fatal("submit naming an unknown array succeeded")
	}
	if _, _, err := s1.HostRead(bogus); err == nil {
		t.Fatal("host read of an unknown array succeeded")
	}
}

func TestSessionQuota(t *testing.T) {
	ctl := sessSystem(t)
	quota := memmodel.Bytes(256) * memmodel.Float32.Size()
	s := NewControllerSession(ctl, "q", SessionLimits{MaxArrayBytes: quota})

	a, err := s.NewArray(memmodel.Float32, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewArray(memmodel.Float32, 100); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota NewArray: got %v, want ErrQuotaExceeded", err)
	}
	// Freeing refunds the quota.
	if err := s.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewArray(memmodel.Float32, 256); err != nil {
		t.Fatalf("NewArray after refund: %v", err)
	}
}

// Kind and length reach NewArray straight off the wire: unknown kinds,
// overflowing lengths and over-ceiling lengths must be rejected before
// any size arithmetic or allocation — never panicked on — and must not
// consume quota or poison the session.
func TestSessionNewArrayValidation(t *testing.T) {
	ctl := sessSystem(t)
	s := NewControllerSession(ctl, "wire", SessionLimits{MaxArrayBytes: 4096})

	if _, err := s.NewArray(memmodel.ElemKind(200), 8); err == nil {
		t.Fatal("NewArray with an unknown element kind succeeded")
	}
	// n=1<<61 with an 8-byte kind wraps the byte size negative, which
	// would slip past the quota check and panic make().
	if _, err := s.NewArray(memmodel.Float64, 1<<61); err == nil {
		t.Fatal("NewArray with an int64-overflowing length succeeded")
	}
	if _, err := s.NewArray(memmodel.Float64, int64(MaxSessionArrayBytes/8)+1); err == nil {
		t.Fatal("NewArray above the absolute byte ceiling succeeded")
	}
	if _, err := s.NewArray(memmodel.Float32, 0); err == nil {
		t.Fatal("NewArray of zero length succeeded")
	}
	if st := s.Stats(); st.Arrays != 0 || st.ArrayBytes != 0 {
		t.Fatalf("rejected allocations left residue: %+v", st)
	}
	if _, err := s.NewArray(memmodel.Float32, 256); err != nil {
		t.Fatalf("valid NewArray after rejections: %v", err)
	}
}

// The controller itself guards the same admission edge (sessions are
// not the only callers).
func TestControllerNewArrayValidation(t *testing.T) {
	ctl := sessSystem(t)
	if _, err := ctl.NewArray(memmodel.ElemKind(-1), 8); err == nil {
		t.Fatal("controller NewArray with an invalid kind succeeded")
	}
	if _, err := ctl.NewArray(memmodel.Float64, math.MaxInt64/8+1); err == nil {
		t.Fatal("controller NewArray with an overflowing length succeeded")
	}
	if _, err := ctl.NewArray(memmodel.Float64, -1); err == nil {
		t.Fatal("controller NewArray with a negative length succeeded")
	}
}

// chainResult runs a fixed CE chain in a session and returns its final
// array contents.
func chainResult(s *ControllerSession) (*kernels.Buffer, error) {
	const n = 64
	nArg := ScalarRef(float64(n))
	a, err := s.NewArray(memmodel.Float32, n)
	if err != nil {
		return nil, err
	}
	b, err := s.NewArray(memmodel.Float32, n)
	if err != nil {
		return nil, err
	}
	init := kernels.NewBuffer(memmodel.Float32, n)
	for i := 0; i < n; i++ {
		init.Set(i, float64(i%9)-4)
	}
	if _, err := s.HostWrite(a, init); err != nil {
		return nil, err
	}
	if _, err := s.HostWrite(b, init); err != nil {
		return nil, err
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(Invocation{Kernel: "axpy",
			Args: []ArgRef{ArrRef(a), ArrRef(b), ScalarRef(0.25), nArg}}); err != nil {
			return nil, err
		}
		if i%3 == 1 {
			if _, err := s.Submit(Invocation{Kernel: "relu",
				Args: []ArgRef{ArrRef(a), nArg}}); err != nil {
				return nil, err
			}
		}
	}
	got, _, err := s.HostRead(a)
	return got, err
}

// Closing one session frees its arrays and disturbs nothing of its
// neighbor's: the survivor's results stay bit-identical to a solo run.
func TestSessionCloseLeavesNeighborUndisturbed(t *testing.T) {
	want, err := chainResult(NewControllerSession(sessSystem(t), "solo", SessionLimits{}))
	if err != nil {
		t.Fatal(err)
	}

	ctl := sessSystem(t)
	victim := NewControllerSession(ctl, "victim", SessionLimits{})
	survivor := NewControllerSession(ctl, "survivor", SessionLimits{})

	done := make(chan error, 1)
	go func() {
		got, err := chainResult(survivor)
		if err == nil && got.MaxAbsDiff(want) != 0 {
			err = errors.New("survivor result diverged from solo run")
		}
		done <- err
	}()

	va, err := victim.NewArray(memmodel.Float32, 64)
	if err != nil {
		t.Fatal(err)
	}
	gid := victim.Array(va).ID
	init := kernels.NewBuffer(memmodel.Float32, 64)
	init.Fill(1)
	if _, err := victim.HostWrite(va, init); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := victim.Submit(Invocation{Kernel: "relu",
			Args: []ArgRef{ArrRef(va), ScalarRef(64)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	if ctl.Array(gid) != nil {
		t.Fatal("victim's array survived session close")
	}
	if _, err := victim.NewArray(memmodel.Float32, 8); err == nil {
		t.Fatal("NewArray on a closed session succeeded")
	}
	if err := victim.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The in-flight counter is released by per-CE watcher goroutines,
	// which can lag the final HostRead's drain.
	survivor.WaitIdle()
	if st := survivor.Stats(); st.Admitted == 0 || st.Aborted != 0 || st.Inflight != 0 {
		t.Fatalf("survivor stats off: %+v", st)
	}
}
