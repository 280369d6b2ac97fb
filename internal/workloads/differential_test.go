package workloads

// The optimizer differential gate: every suite workload, submitted as a
// stream through AsyncGrout, must produce bit-identical array contents
// (and identical error text) with the controller's lookahead optimizer
// window on and off. The window rewrites admission — fusing CEs,
// coalescing and eliminating transfers, and evaluating the policy
// against a frozen snapshot, which legitimately changes placements — so
// this is the property that proves the rewrites never change results.

import (
	"bytes"
	"sort"
	"testing"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
)

// recorder tracks the live framework arrays a workload allocates, so the
// differential can read back every buffer the run left behind.
type recorder struct {
	Session
	order []dag.ArrayID
	live  map[dag.ArrayID]bool
}

func (r *recorder) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	id, err := r.Session.NewArray(kind, n)
	if err == nil {
		r.order = append(r.order, id)
		r.live[id] = true
	}
	return id, err
}

func (r *recorder) Free(id dag.ArrayID) error {
	err := r.Session.Free(id)
	if err == nil {
		delete(r.live, id)
	}
	return err
}

// runDifferential builds one workload on a fresh fleet and returns every
// live array's final bytes (in allocation order) plus the run's error
// text ("" for success).
func runDifferential(t *testing.T, w *Workload, optimize bool) ([][]byte, string) {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(4))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), true)
	opts := core.Options{Numeric: true}
	if optimize {
		opts.OptimizeWindow = 16
	}
	// min-transfer-time also exercises the batched policy path.
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium), opts)
	defer ctl.Close()

	s := &AsyncGrout{Ctl: ctl}
	rec := &recorder{Session: s, live: make(map[dag.ArrayID]bool)}
	errText := ""
	if err := w.Build(rec, gateParams(w.Name)); err != nil {
		errText = err.Error()
	}
	if err := s.Wait(); err != nil && errText == "" {
		errText = err.Error()
	}
	var out [][]byte
	for _, id := range rec.order {
		if !rec.live[id] {
			continue
		}
		if _, err := ctl.HostRead(id); err != nil {
			if errText == "" {
				errText = err.Error()
			}
			out = append(out, nil)
			continue
		}
		arr := ctl.Array(id)
		out = append(out, append([]byte(nil), arr.Buf.RawBytes()...))
	}
	return out, errText
}

func TestOptimizerDifferentialSuite(t *testing.T) {
	suite := FullSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			base, baseErr := runDifferential(t, suite[name], false)
			opt, optErr := runDifferential(t, suite[name], true)
			if baseErr != optErr {
				t.Fatalf("error text diverged:\n  window off: %q\n  window on:  %q", baseErr, optErr)
			}
			if len(base) != len(opt) {
				t.Fatalf("live array count diverged: %d vs %d", len(base), len(opt))
			}
			for i := range base {
				if !bytes.Equal(base[i], opt[i]) {
					t.Fatalf("array %d of %d diverged with the optimizer window on", i, len(base))
				}
			}
		})
	}
}
