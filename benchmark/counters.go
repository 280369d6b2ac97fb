package main

import (
	"io"
	"os"

	"grout/internal/core"
	"grout/internal/gpusim"
)

// logOut receives diagnostics; standard output is reserved for results.
var logOut io.Writer = os.Stderr

// coreTotals accumulates the figures core.Controllers keep about their own
// work, over however many controllers a workload builds (one per fleet,
// one per sweep cell). Apart from the scheduling overhead they are counts
// that repeat exactly wherever the schedule does, so two commits can be
// compared on them without a noise band.
type coreTotals struct {
	ces        int
	schedNs    float64 // Σ mean scheduling overhead × CEs
	movedBytes float64
	p2pMoves   int
	vertices   int
	failovers  int
	recoveries int
	opt        core.OptStats
}

// add folds in one drained controller that ran ces CEs.
func (t *coreTotals) add(ctl *core.Controller, ces int) {
	t.ces += ces
	t.schedNs += float64(ctl.MeanSchedulingOverhead()) * float64(ces)
	t.movedBytes += float64(ctl.MovedBytes())
	t.p2pMoves += ctl.P2PMoves()
	t.vertices += ctl.Graph().Size()
	t.failovers += ctl.Failovers()
	t.recoveries += ctl.Recoveries()
	o := ctl.OptStats()
	t.opt.FusedCEs += o.FusedCEs
	t.opt.CoalescedTransfers += o.CoalescedTransfers
	t.opt.EliminatedMoves += o.EliminatedMoves
}

func (t *coreTotals) into(layer map[string]float64) {
	layer["core.moved_mb"] = t.movedBytes / 1e6
	layer["core.p2p_moves"] = float64(t.p2pMoves)
	layer["core.dag_vertices"] = float64(t.vertices)
	layer["core.failovers"] = float64(t.failovers)
	layer["core.recoveries"] = float64(t.recoveries)
	layer["optimizer.fused_ces"] = float64(t.opt.FusedCEs)
	layer["optimizer.coalesced_transfers"] = float64(t.opt.CoalescedTransfers)
	layer["optimizer.eliminated_moves"] = float64(t.opt.EliminatedMoves)
	if t.ces > 0 {
		layer["core.sched_overhead_us"] = t.schedNs / float64(t.ces) / 1e3
		layer["optimizer.eliminated_move_share"] = float64(t.opt.EliminatedMoves) / float64(t.ces)
	}
}

// deviceCounters reports the simulated UVM traffic behind a run.
func deviceCounters(layer map[string]float64, s gpusim.Stats) {
	layer["gpusim.pages_in"] = float64(s.PagesMigratedIn)
	layer["gpusim.pages_evicted"] = float64(s.PagesEvicted)
	layer["gpusim.pages_written_back"] = float64(s.PagesWrittenBack)
	layer["gpusim.kernels_run"] = float64(s.KernelsRun)
	if s.PagesMigratedIn > 0 {
		layer["gpusim.refault_share"] = float64(s.PagesEvicted) / float64(s.PagesMigratedIn)
	}
}
