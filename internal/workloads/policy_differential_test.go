package workloads

// The memory-policy differential gate: every suite workload, run with
// every prefetch/eviction policy combination installed on every worker,
// must produce bit-identical array contents (and identical error text)
// to the LRU/eager baseline. Policies move modeled time — what migrates
// when, at which bandwidth — but never data: numeric results are computed
// by the kernels' host implementations and must not depend on how the
// simulator charges for page traffic.

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

// runPolicyDifferential builds one workload on a fresh fleet whose
// workers all run the given memory-policy combination, returning every
// live array's final bytes plus the run's error text.
func runPolicyDifferential(t *testing.T, w *Workload, prefetch, evict string) ([][]byte, string) {
	t.Helper()
	clu := cluster.New(cluster.PaperSpec(4))
	fab := core.NewLocalFabric(clu, kernels.StdRegistry(), true)
	for _, id := range fab.Workers() {
		if err := fab.Runtime(id).Node().UseMemoryPolicies(prefetch, evict); err != nil {
			t.Fatalf("UseMemoryPolicies(%q, %q): %v", prefetch, evict, err)
		}
	}
	ctl := core.NewController(fab, policy.NewMinTransferTime(policy.Medium),
		core.Options{Numeric: true})
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

func TestMemoryPolicyDifferentialSuite(t *testing.T) {
	suite := FullSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			base, baseErr := runPolicyDifferential(t, suite[name], "eager", "lru")
			for _, combo := range AllPolicyCombos() {
				if combo[0] == "eager" && combo[1] == "lru" {
					continue
				}
				got, gotErr := runPolicyDifferential(t, suite[name], combo[0], combo[1])
				if gotErr != baseErr {
					t.Fatalf("%s+%s: error text diverged:\n  baseline: %q\n  policy:   %q",
						combo[0], combo[1], baseErr, gotErr)
				}
				if len(got) != len(base) {
					t.Fatalf("%s+%s: live array count diverged: %d vs %d",
						combo[0], combo[1], len(base), len(got))
				}
				for i := range base {
					if !bytes.Equal(base[i], got[i]) {
						t.Fatalf("%s+%s: array %d of %d diverged from the LRU baseline",
							combo[0], combo[1], i, len(base))
					}
				}
			}
		})
	}
}

func TestOversubscriptionSweepShape(t *testing.T) {
	pts, err := OversubscriptionSweep(SweepConfig{
		Factors:  []float64{0.5, 1.5},
		Patterns: []memmodel.Pattern{memmodel.Sequential},
		Combos:   [][2]string{{"eager", "lru"}, {"stride", "lru"}},
		Launches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	byKey := make(map[string]SweepPoint)
	for _, p := range pts {
		byKey[p.Prefetch+"/"+p.Pattern+"/"+fmtFactor(p.Factor)] = p
		if p.NsPerLaunch <= 0 {
			t.Errorf("cell %+v: non-positive ns/launch", p)
		}
		if len(p.Regimes) == 0 {
			t.Errorf("cell %+v: empty regime histogram", p)
		}
	}
	// Below device memory both policies are resident and identical in
	// regime; at 1.5x the stride policy must beat the baseline >=2x
	// (EXPERIMENTS.md's oversubscription-cliff claim).
	if r := byKey["eager/sequential/0.5"].Regimes["resident"]; r != 4 {
		t.Errorf("0.5x not resident: %+v", byKey["eager/sequential/0.5"])
	}
	base := byKey["eager/sequential/1.5"].NsPerLaunch
	stride := byKey["stride/sequential/1.5"].NsPerLaunch
	if base < 2*stride {
		t.Errorf("at 1.5x: baseline %d ns, stride %d ns — want >=2x reduction", base, stride)
	}
}

func fmtFactor(f float64) string {
	switch f {
	case 0.5:
		return "0.5"
	case 1.5:
		return "1.5"
	}
	return ""
}
