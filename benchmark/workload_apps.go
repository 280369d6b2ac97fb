package main

// numeric-apps: the fourteen programs of workloads.FullSuite, one after
// another, through grout.Connect → two TCP workers via
// workloads.AsyncGrout (no gateway). Kernel execution dominates (conv and
// kmeans are most of it) with real HostWrite/HostRead/P2P traffic beside
// it; the control plane sees under a thousand CEs, so a server or core
// change should not move this workload.

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"time"

	"grout"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/minicuda"
	"grout/internal/sim"
	"grout/internal/workloads"
)

const (
	// appsFootprint is each program's footprint at the reference ten
	// seconds; the programs' work is close to linear in it.
	appsFootprint = 20 * memmodel.MiB
	appsMinBytes  = memmodel.MiB
	appsBlocks    = 4
)

// arraySum identifies an array's contents: length and two independent
// CRCs of its raw bytes. Holding sums instead of copies keeps the
// harness's own memory out of peak_rss_mb.
type arraySum struct {
	bytes    int
	ieee, cs uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sumOf(raw []byte) arraySum {
	return arraySum{bytes: len(raw), ieee: crc32.ChecksumIEEE(raw), cs: crc32.Checksum(raw, castagnoli)}
}

// liveArrays wraps a session to remember which arrays a program leaves
// behind, in allocation order.
type liveArrays struct {
	workloads.Session
	order []dag.ArrayID
	freed map[dag.ArrayID]bool
}

func (l *liveArrays) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	id, err := l.Session.NewArray(kind, n)
	if err == nil {
		l.order = append(l.order, id)
	}
	return id, err
}

func (l *liveArrays) Free(id dag.ArrayID) error {
	err := l.Session.Free(id)
	if err == nil {
		if l.freed == nil {
			l.freed = make(map[dag.ArrayID]bool)
		}
		l.freed[id] = true
	}
	return err
}

func (l *liveArrays) live() []dag.ArrayID {
	var out []dag.ArrayID
	for _, id := range l.order {
		if !l.freed[id] {
			out = append(out, id)
		}
	}
	return out
}

// collectSums host-reads every live array, sums it and frees it.
func collectSums(ctl *core.Controller, ids []dag.ArrayID) ([]arraySum, error) {
	sums := make([]arraySum, 0, len(ids))
	for _, id := range ids {
		if _, err := ctl.HostRead(id); err != nil {
			return nil, err
		}
		sums = append(sums, sumOf(ctl.Array(id).Buf.RawBytes()))
		if err := ctl.FreeArray(id); err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// drySession lets a program's Build allocate its arrays and build its
// kernels for real while its launches and host operations do nothing:
// set-up cost without the run. Programs build static CE graphs (no
// control flow on array contents), so Build takes the same path.
type drySession struct {
	ctl *core.Controller
}

func (d drySession) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	arr, err := d.ctl.NewArray(kind, n)
	if err != nil {
		return 0, err
	}
	return arr.ID, nil
}

func (d drySession) BuildKernel(src, signature string) (string, error) {
	def, err := d.ctl.BuildKernel(src, signature)
	if err != nil {
		return "", err
	}
	return def.Name, nil
}

func (d drySession) Free(id dag.ArrayID) error                     { return d.ctl.FreeArray(id) }
func (d drySession) Launch(string, int, int, ...core.ArgRef) error { return nil }
func (d drySession) HostRead(dag.ArrayID) error                    { return nil }
func (d drySession) HostWrite(dag.ArrayID) error                   { return nil }
func (d drySession) Buffer(dag.ArrayID) workloads.BufferLike       { return nil }
func (d drySession) Elapsed() sim.VirtualTime                      { return 0 }

type appsWorkload struct {
	fleet  *tcpFleet
	tr     *tracer
	params workloads.Params
	names  []string // seeded order
	suite  map[string]*workloads.Workload
	sums   map[string][]arraySum
}

func (w *appsWorkload) setUp(cfg runConfig, scale float64, tr *tracer) error {
	w.tr = tr
	w.suite = workloads.FullSuite()
	for name := range w.suite {
		w.names = append(w.names, name)
	}
	sort.Strings(w.names)
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(w.names), func(i, j int) {
		w.names[i], w.names[j] = w.names[j], w.names[i]
	})
	fp := memmodel.Bytes(float64(appsFootprint) * scale)
	if fp < appsMinBytes {
		fp = appsMinBytes
	}
	w.params = workloads.Params{Footprint: fp, Blocks: appsBlocks}

	// Every set-up pays the cold kernel builds, as a fresh process would.
	minicuda.FlushCompileCache()
	var err error
	if w.fleet, err = startTCPFleet("min-transfer-time", tr); err != nil {
		return err
	}
	for _, name := range w.names {
		dry := &liveArrays{Session: drySession{ctl: w.fleet.ctl}}
		if err := w.suite[name].Build(dry, w.params); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, id := range dry.live() {
			if err := w.fleet.ctl.FreeArray(id); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *appsWorkload) measure() (phaseResult, error) {
	res := phaseResult{lat: newLatencySet(1, 16), layer: map[string]float64{}}
	w.sums = make(map[string][]arraySum)
	ctl := w.fleet.ctl
	for _, name := range w.names {
		async := &workloads.AsyncGrout{Ctl: ctl}
		seam := &seamSession{inner: async, sync: waitSyncer{async}, tr: w.tr, tenant: -1}
		rec := &liveArrays{Session: seam}
		start := time.Now()
		err := w.suite[name].Build(rec, w.params)
		if err == nil {
			err = seam.Sync()
		}
		// Allocation and kernel builds were charged to set-up.
		wall := time.Since(start) - seam.setupDur
		res.wall += wall
		if seam.launches > 0 {
			// A program's launches are asynchronous submissions, so a
			// single Launch call says nothing; what its user waits for
			// is the program, and the sample is its time per launch.
			res.lat.add(0, wall/time.Duration(seam.launches))
		}
		res.ces += seam.launches
		res.attempted += seam.ops
		res.failed += seam.failed
		if err != nil {
			fmt.Fprintf(logOut, "numeric-apps: %s: %v\n", name, err)
			if seam.failed == 0 {
				res.failed++
			}
			continue
		}
		sums, err := collectSums(ctl, rec.live())
		if err != nil {
			return res, fmt.Errorf("%s: reading results back: %w", name, err)
		}
		w.sums[name] = sums
	}
	res.cePerSec = float64(res.ces) / res.wall.Seconds()
	var totals coreTotals
	totals.add(ctl, res.ces)
	totals.into(res.layer)
	deviceCounters(res.layer, w.fleet.workerDeviceStats())
	return res, nil
}

// check reruns every program serially on an in-process simulated cluster
// through blocking launches — the repository's trimodal rule — and
// compares every array's checksum.
func (w *appsWorkload) check() (attempted, failed int, err error) {
	for _, name := range w.names {
		got, ran := w.sums[name]
		if !ran {
			continue // already counted as a failed operation
		}
		ref, err := grout.NewSimulatedCluster(grout.Config{Workers: fleetWorkers,
			Policy: "min-transfer-time", Numeric: true, Pipeline: true})
		if err != nil {
			return 0, 0, err
		}
		rec := &liveArrays{Session: &workloads.Grout{Ctl: ref.Controller}}
		err = w.suite[name].Build(rec, w.params)
		var want []arraySum
		if err == nil {
			want, err = collectSums(ref.Controller, rec.live())
		}
		ref.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("reference run of %s: %w", name, err)
		}
		n := len(want)
		if len(got) > n {
			n = len(got)
		}
		attempted += n
		for i := 0; i < n; i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				failed++
			}
		}
	}
	return attempted, failed, nil
}

func (w *appsWorkload) tearDown() error {
	if w.fleet == nil {
		return nil
	}
	return w.fleet.close()
}
