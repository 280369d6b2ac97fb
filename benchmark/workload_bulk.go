package main

// bulk-move: grout.Connect, round-robin placement, blocking launches. Each
// round writes an array on the host, launches a one-element kernel on it
// twice — round-robin puts the launches on different workers, so the
// second one forces a worker-to-worker move — and reads it back: three
// whole-array moves over transport's bulk channel per round. Phase A does
// this over 16 MiB arrays, where moves are bandwidth-bound; phase B over
// 64 KiB arrays, where per-move overhead dominates. A chunking or framing
// change that helps one and costs the other shows as opposite signs.

import (
	"fmt"
	"math/rand"
	"time"

	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
)

const (
	bulkLargeBytes = 16 * memmodel.MiB
	bulkSmallBytes = 64 * memmodel.KiB
	bulkArrays     = 2 // per phase, used alternately
	// Rounds at the reference ten seconds. Small rounds outnumber large
	// ones 12:1, so large launches are 1/13 of all launches:
	// launch_p50_us is a small-array launch (move overhead) and
	// launch_p99_us sits well inside the large-array launches (move
	// bandwidth), not on the boundary between the two populations.
	bulkLargeRounds   = 200
	bulkSmallPerLarge = 12
	// bulkTouched is how many elements change between rounds, so every
	// round ships a payload the previous one did not.
	bulkTouched = 64
)

// bulkPhase is one array size's arrays and counters.
type bulkPhase struct {
	elems  int
	rounds int
	ids    []dag.ArrayID
	bufs   []*kernels.Buffer

	busy       time.Duration
	movedBytes float64
	done       int
}

type bulkWorkload struct {
	fleet  *tcpFleet
	tr     *tracer
	rng    *rand.Rand
	phases [2]*bulkPhase // large, small
	// badSums counts rounds whose read-back payload did not match.
	badSums int
	checked int
}

func (w *bulkWorkload) setUp(cfg runConfig, scale float64, tr *tracer) error {
	w.tr = tr
	w.rng = rand.New(rand.NewSource(cfg.seed))
	var err error
	if w.fleet, err = startTCPFleet("round-robin", tr); err != nil {
		return err
	}
	large := scaled(bulkLargeRounds, scale, 2)
	w.phases[0] = &bulkPhase{elems: int(bulkLargeBytes / 4), rounds: large}
	w.phases[1] = &bulkPhase{elems: int(bulkSmallBytes / 4), rounds: large * bulkSmallPerLarge}
	for _, ph := range w.phases {
		for a := 0; a < bulkArrays; a++ {
			arr, err := w.fleet.ctl.NewArray(memmodel.Float32, int64(ph.elems))
			if err != nil {
				return err
			}
			fillPayload(arr.Buf.F32, w.rng.Uint64())
			if _, err := w.fleet.ctl.HostWrite(arr.ID); err != nil {
				return err
			}
			ph.ids = append(ph.ids, arr.ID)
			ph.bufs = append(ph.bufs, arr.Buf)
		}
	}
	return nil
}

// fillPayload fills p with values in [-1, 1) from a xorshift stream: 4 Mi
// draws from math/rand would be most of this workload's set-up time, and
// set-up time is the system's, not the harness's.
func fillPayload(p []float32, state uint64) {
	state |= 1
	for i := range p {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p[i] = float32(int32(state>>40))/(1<<23) - 1
	}
}

// round runs one write → launch → launch → read cycle on array a of ph,
// timing only the four operations, and checks the payload that came back.
func (w *bulkWorkload) round(ph *bulkPhase, a int, res *phaseResult) {
	ctl := w.fleet.ctl
	buf := ph.bufs[a]
	for k := 0; k < bulkTouched; k++ {
		buf.F32[w.rng.Intn(ph.elems)] = float32(w.rng.Float64()*2 - 1)
	}
	// relu(x, 1) touches element 0 only; the expected payload is the
	// written one with that element clamped.
	first := buf.F32[0]
	if first < 0 {
		buf.F32[0] = 0
	}
	want := sumOf(buf.RawBytes())
	buf.F32[0] = first

	inv := core.Invocation{Kernel: "relu", Grid: 1, Block: 1,
		Args: []core.ArgRef{core.ArrRef(ph.ids[a]), core.ScalarRef(1)}}
	movedBefore := ctl.MovedBytes()
	op := func(f func() error, launch bool) bool {
		t := time.Now()
		err := f()
		d := time.Since(t)
		ph.busy += d
		if w.tr != nil {
			kind := spSessionSync
			if launch {
				kind = spSessionLaunch
			}
			w.tr.record(kind, w.tr.at(t), w.tr.at(t.Add(d)), -1, err != nil)
		}
		res.attempted++
		if err != nil {
			res.failed++
			fmt.Fprintf(logOut, "bulk-move: %v\n", err)
			return false
		}
		if launch {
			res.lat.add(0, d)
			res.ces++
		}
		return true
	}
	launch := func() error { _, err := ctl.Launch(inv); return err }
	ok := op(func() error { _, err := ctl.HostWrite(ph.ids[a]); return err }, false) &&
		op(launch, true) && op(launch, true) &&
		op(func() error { _, err := ctl.HostRead(ph.ids[a]); return err }, false)
	if !ok {
		return
	}
	ph.movedBytes += float64(ctl.MovedBytes() - movedBefore)
	ph.done++
	w.checked++
	if sumOf(buf.RawBytes()) != want {
		w.badSums++
	}
}

func (w *bulkWorkload) measure() (phaseResult, error) {
	res := phaseResult{lat: newLatencySet(1, 4096), layer: map[string]float64{}}
	for _, ph := range w.phases {
		for r := 0; r < ph.rounds; r++ {
			w.round(ph, r%bulkArrays, &res)
		}
		res.wall += ph.busy
	}
	if res.wall > 0 {
		res.cePerSec = float64(res.ces) / res.wall.Seconds()
	}
	if large := w.phases[0]; large.busy > 0 {
		res.layer["move_large_mb_per_s"] = large.movedBytes / 1e6 / large.busy.Seconds()
	}
	if small := w.phases[1]; small.busy > 0 {
		res.layer["move_small_per_s"] = float64(small.done) / small.busy.Seconds()
	}
	var totals coreTotals
	totals.add(w.fleet.ctl, res.ces)
	totals.into(res.layer)
	deviceCounters(res.layer, w.fleet.workerDeviceStats())
	return res, nil
}

// check reports the per-round payload checksums measure compared as it
// went (each round's payload is overwritten by the next).
func (w *bulkWorkload) check() (attempted, failed int, err error) {
	return w.checked, w.badSums, nil
}

func (w *bulkWorkload) tearDown() error {
	if w.fleet == nil {
		return nil
	}
	return w.fleet.close()
}
