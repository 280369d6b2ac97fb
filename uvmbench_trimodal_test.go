package grout

import (
	"sort"
	"testing"

	"grout/internal/dag"
	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/server"
	"grout/internal/transport"
	"grout/internal/workloads"
)

// trimodalParams keeps every UVMBench workload small enough that the
// three full system stacks below stay fast while still running multiple
// partitions per workload.
func trimodalParams(name string) workloads.Params {
	fp := 512 * memmodel.KiB
	switch name {
	case "triad", "stencil2d":
		fp = memmodel.MiB
	case "bfs", "kmeans", "logreg":
		fp = 256 * memmodel.KiB
	}
	return workloads.Params{Footprint: fp, Blocks: 2}
}

// collectArrays host-reads every live array id and returns its values.
// Ids are allocated sequentially from 1 by every Session backend, so the
// scan shape is identical across modes.
func collectArrays(t *testing.T, s workloads.Session) map[dag.ArrayID][]float64 {
	t.Helper()
	out := make(map[dag.ArrayID][]float64)
	for id := dag.ArrayID(1); id <= 128; id++ {
		if err := s.HostRead(id); err != nil {
			continue
		}
		buf := s.Buffer(id)
		if buf == nil {
			continue
		}
		v := make([]float64, buf.Len())
		for i := range v {
			v[i] = buf.At(i)
		}
		out[id] = v
	}
	return out
}

func runEmbedded(t *testing.T, w *workloads.Workload) map[dag.ArrayID][]float64 {
	t.Helper()
	c, err := NewSimulatedCluster(Config{Workers: 2, Policy: "min-transfer-time", Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := &workloads.Grout{Ctl: c.Controller}
	if err := w.Build(s, trimodalParams(w.Name)); err != nil {
		t.Fatal(err)
	}
	return collectArrays(t, s)
}

func runTCP(t *testing.T, w *workloads.Workload) map[dag.ArrayID][]float64 {
	t.Helper()
	w1, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	r, err := Connect([]string{w1.Addr(), w2.Addr()}, Config{Policy: "min-transfer-time"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := &workloads.Grout{Ctl: r.Controller}
	if err := w.Build(s, trimodalParams(w.Name)); err != nil {
		t.Fatal(err)
	}
	return collectArrays(t, s)
}

func runGateway(t *testing.T, w *workloads.Workload) map[dag.ArrayID][]float64 {
	t.Helper()
	c, err := NewSimulatedCluster(Config{Workers: 2, Policy: "min-transfer-time", Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := server.New(c.Controller, "127.0.0.1:0", server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sess, err := Dial(g.Addr(), "uvmbench")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := w.Build(sess, trimodalParams(w.Name)); err != nil {
		t.Fatal(err)
	}
	return collectArrays(t, sess)
}

// TestUVMBenchTrimodal is the portability claim of the workload suite:
// every UVMBench program runs unmodified against the embedded
// controller, a solo TCP fleet, and a multi-tenant gateway, and the
// three stacks produce bit-identical arrays.
func TestUVMBenchTrimodal(t *testing.T) {
	suite := workloads.UVMSuite()
	names := make([]string, 0, len(suite))
	for name := range suite {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			w := suite[name]
			want := runEmbedded(t, w)
			if len(want) == 0 {
				t.Fatal("embedded run produced no arrays")
			}
			for mode, got := range map[string]map[dag.ArrayID][]float64{
				"tcp":     runTCP(t, w),
				"gateway": runGateway(t, w),
			} {
				if len(got) != len(want) {
					t.Fatalf("%s: %d arrays, embedded has %d", mode, len(got), len(want))
				}
				for id, wv := range want {
					gv, ok := got[id]
					if !ok {
						t.Fatalf("%s: array %d missing", mode, id)
					}
					if len(gv) != len(wv) {
						t.Fatalf("%s: array %d length %d, embedded %d", mode, id, len(gv), len(wv))
					}
					for i := range wv {
						if gv[i] != wv[i] {
							t.Fatalf("%s: array %d[%d] = %v, embedded %v", mode, id, i, gv[i], wv[i])
						}
					}
				}
			}
		})
	}
}
