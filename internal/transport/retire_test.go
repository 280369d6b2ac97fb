package transport

// Tests for bounded per-CE state over real sockets (DESIGN.md §5.1, "State
// lifetime"): a stream far longer than the DAG's retirement horizon and
// the trace and record rings must leave the same bytes as the serial
// in-process run — through a worker kill — while the controller and the
// workers hold a bounded number of CEs; and a worker's launch count must
// keep counting past its record ring.

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// TestWorkerStatsCountLaunchesPastRecordRing: MsgStats answers from the
// runtime's launch counter, not from the length of its record log, which
// stops growing once the ring is full.
func TestWorkerStatsCountLaunchesPastRecordRing(t *testing.T) {
	const launches = 6000 // the record ring holds 4096
	workers, addrs := startWorkers(t, 1)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: 64}); err != nil {
		t.Fatal(err)
	}
	inv := core.Invocation{Kernel: "relu", Args: []core.ArgRef{core.ArrRef(1), core.ScalarRef(64)}}
	for i := 0; i < launches; i++ {
		if _, err := fab.Launch(1, inv, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fab.Stats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kernels != launches {
		t.Fatalf("worker reports %d kernels, want %d", st.Kernels, launches)
	}
	workers[0].mu.Lock()
	recs := workers[0].Runtime().Records()
	workers[0].mu.Unlock()
	if len(recs) >= launches {
		t.Fatalf("record log holds %d entries after %d launches: not a ring, the count above proved nothing", len(recs), launches)
	}
	if last := recs[len(recs)-1]; last.CE != launches {
		t.Fatalf("newest record is CE %d, want %d", last.CE, launches)
	}
}

// longRunProgram is a 50 000-CE program with one stretch in which a worker
// can be killed and everything stays recoverable, whatever was in flight.
// Lineage replay cannot rebuild an old version of an array whose newer
// version is still live somewhere (lineage.go: "conservatively
// unrecoverable"), and a random program over three workers walks into that
// within a few ops of any kill. So the kill window is fenced: a checkpoint
// before it (read, then host-write every array: the controller's buffer is
// every array's root), only in-place kernels inside it (each array's
// lineage is its own chain back to that root), and a read of every array
// after it (whatever was lost is recomputed there). Before and after, the
// program is genStream's: two-array kernels, aliasing, host ops.
// It returns the ops and the index to kill at, mid-window.
func longRunProgram(seed int64, nArr, nOps int) (ops []streamOp, killAt int) {
	const window = 400
	// genStream synchronises (host read or write) every twelfth op, which
	// is what most of a long run would then be spent on; one in sixteen of
	// those is plenty.
	general := func(seed int64, n int) {
		hostOps := 0
		for _, op := range genStream(seed, nArr, n+n/8) {
			if op.hostRead != 0 || op.hostWr != 0 {
				if hostOps++; hostOps%16 != 0 {
					continue
				}
			}
			ops = append(ops, op)
			if n--; n == 0 {
				return
			}
		}
	}
	general(seed, nOps*3/5)
	for a := 1; a <= nArr; a++ {
		ops = append(ops, streamOp{hostRead: a}, streamOp{hostWr: a})
	}
	killAt = len(ops) + window/2
	nArg := core.ScalarRef(streamElems)
	for i := 0; i < window; i++ {
		x := core.ArrRef(dag.ArrayID(1 + (i*7)%nArr))
		switch i % 3 {
		case 0:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "axpy",
				Args: []core.ArgRef{x, x, core.ScalarRef(0.25), nArg}}})
		case 1:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "scale",
				Args: []core.ArgRef{x, x, core.ScalarRef(-0.75), nArg}}})
		default:
			ops = append(ops, streamOp{inv: core.Invocation{Kernel: "relu", Args: []core.ArgRef{x, nArg}}})
		}
	}
	for a := 1; a <= nArr; a++ {
		ops = append(ops, streamOp{hostRead: a})
	}
	general(seed+1, nOps-len(ops))
	return ops, killAt
}

// TestRetireLongRunSurvivesWorkerKill runs a 50 000-CE seeded program —
// longer than the retirement horizon and both rings many times over — on a
// pipelined, windowed, streaming controller over three TCP workers, and
// kills one worker with launches in flight. With Failover the result must
// be bit-identical to the serial in-process run (lineage replay reaches
// through retired vertices: producer records keep their own copy of the
// CE; a redone CE reads its ancestors' records before it commits), every
// Pending must resolve cleanly, and neither the controller nor a surviving
// worker may hold more CEs than the frontier plus the horizon.
func TestRetireLongRunSurvivesWorkerKill(t *testing.T) {
	const nArr, nOps, nWorkers = 6, 50_000, 3
	ops, killAt := longRunProgram(11, nArr, nOps)
	if len(ops) != nOps {
		t.Fatalf("generated %d ops, want %d", len(ops), nOps)
	}

	ref := core.NewController(
		core.NewLocalFabric(cluster.New(cluster.PaperSpec(nWorkers)), kernels.StdRegistry(), true),
		policy.NewMinTransferTime(policy.Medium), core.Options{Numeric: true})
	want, err := runStream(ref, nArr, ops)
	if err != nil {
		t.Fatalf("serial reference: %v", err)
	}

	workers, addrs := startWorkers(t, nWorkers)
	fab, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), core.Options{
		Numeric: true, OptimizeWindow: 32, Failover: true})
	defer ctl.Close()

	var pend []*core.Pending
	victim := 0
	kill := func(w *WorkerServer) {
		// Listener and every connection go at once, whatever is in flight.
		w.mu.Lock()
		_ = w.listener.Close()
		for c := range w.active {
			_ = c.Close()
		}
		w.mu.Unlock()
		_ = w.Close()
	}
	got, err := func() ([][]float64, error) {
		for i := 0; i < nArr; i++ {
			arr, err := ctl.NewArray(memmodel.Float32, streamElems)
			if err != nil {
				return nil, err
			}
			for j := 0; j < streamElems; j++ {
				arr.Buf.Set(j, float64(i+1)*float64(j%17)-8)
			}
			if _, err := ctl.HostWrite(arr.ID); err != nil {
				return nil, err
			}
		}
		for i, op := range ops {
			if i == killAt {
				// Half the window is submitted. Let the first quarter
				// commit, so the arrays really are worker-resident, and
				// strike while the second is in flight.
				if err := ctl.FlushWindow(); err != nil {
					return nil, err
				}
				<-pend[len(pend)-100].Done()
				// The victim is the worker the scheduler has placed the
				// most sole copies on: killing it loses data for certain.
				sole := make([]int, nWorkers)
				for a := 1; a <= nArr; a++ {
					if loc := ctl.Array(dag.ArrayID(a)).Locations(); len(loc) == 1 && loc[0].IsWorker() {
						sole[int(loc[0])-1]++
					}
				}
				for w := range sole {
					if sole[w] > sole[victim] {
						victim = w
					}
				}
				kill(workers[victim])
			}
			var err error
			switch {
			case op.hostRead != 0:
				_, err = ctl.HostRead(dag.ArrayID(op.hostRead))
			case op.hostWr != 0:
				_, err = ctl.HostWrite(dag.ArrayID(op.hostWr))
			default:
				var p *core.Pending
				if p, err = ctl.Submit(op.inv); err == nil {
					pend = append(pend, p)
				}
			}
			if err != nil {
				return nil, err
			}
		}
		if err := ctl.Drain(); err != nil {
			return nil, err
		}
		return readArrays(ctl, nArr)
	}()
	if err != nil {
		t.Fatalf("tcp run: %v", err)
	}
	sameArrays(t, "50 000-CE stream with a worker killed vs serial in-process run", got, want)
	allResolved(t, pend)
	for i, p := range pend {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("launch %d: %v", i, err)
		}
	}
	if ctl.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", ctl.Failovers())
	}
	if ctl.Recoveries() == 0 {
		t.Fatal("no array was recomputed from lineage: the kill lost nothing and the replay path went untested")
	}

	// Every array is rewritten all the time, so the frontier is a handful
	// of vertices per array; 64 is generous.
	const bound = dag.RetireHorizon + 64
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if size, live := ctl.Graph().Size(), ctl.Graph().Live(); size < nOps || live > bound {
		t.Fatalf("controller graph: %d CEs ever added, %d held; want at least %d added, at most %d held",
			size, live, nOps, bound)
	}
	if n := len(ctl.Traces()); n >= nOps {
		t.Fatalf("trace log holds %d entries after %d CEs: not a ring", n, nOps)
	}
	for i, w := range workers {
		if i == victim {
			continue
		}
		w.mu.Lock()
		size, live := w.Runtime().Graph().Size(), w.Runtime().Graph().Live()
		w.mu.Unlock()
		if size <= bound || live > bound {
			t.Fatalf("worker %s graph: %d CEs ever added, %d held; want more than %d added (or the bound means nothing) and at most that held",
				w.Addr(), size, live, bound)
		}
	}
}
