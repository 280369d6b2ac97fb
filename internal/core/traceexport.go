package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"grout/internal/dag"
	"grout/internal/sim"
)

// chromeEvent is one complete event ("ph":"X") in the Chrome trace-viewer
// JSON format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeMeta names a process or thread in the viewer.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace exports the controller's CE schedule — the most recent
// traceRing CEs — as Chrome trace-viewer JSON: one process per node, CE
// intervals as complete events. Load the output in chrome://tracing or
// https://ui.perfetto.dev to inspect a placement visually.
func (c *Controller) WriteChromeTrace(w io.Writer) error {
	var events []any
	traces := c.traces.Slice()

	// Name the processes (one per node seen in the trace).
	nodes := map[int]bool{}
	for _, tr := range traces {
		nodes[int(tr.Node)] = true
	}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		name := "controller"
		if id > 0 {
			name = fmt.Sprintf("worker%d", id)
		}
		events = append(events, chromeMeta{
			Name: "process_name", Ph: "M", PID: id, TID: 0,
			Args: map[string]any{"name": name},
		})
	}

	for _, tr := range traces {
		dur := float64(tr.End-tr.Start) / 1e3
		if dur <= 0 {
			dur = 0.001 // zero-width events are invisible in the viewer
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s #%d", tr.Label, tr.CE),
			Cat:  "ce",
			Ph:   "X",
			TS:   float64(tr.Start) / 1e3,
			Dur:  dur,
			PID:  int(tr.Node),
			TID:  0,
			Args: map[string]string{
				"moved":          tr.MovedBytes.String(),
				"p2p":            fmt.Sprintf("%d", tr.P2PMoves),
				"sched_overhead": tr.SchedOverhd.String(),
			},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

// WriteGantt renders the CE schedule (the most recent traceRing CEs) as an
// ASCII Gantt chart, one row per node, time flowing left to right over the
// given width — the quick-look companion to WriteChromeTrace.
func (c *Controller) WriteGantt(w io.Writer, width int) error {
	if width < 20 {
		width = 80
	}
	traces := c.traces.Slice()
	if len(traces) == 0 {
		_, err := fmt.Fprintln(w, "(no CEs scheduled)")
		return err
	}
	horizon := c.elapsed
	if horizon <= 0 {
		horizon = 1
	}
	nodes := map[int]bool{}
	for _, tr := range traces {
		nodes[int(tr.Node)] = true
	}
	ids := make([]int, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	glyphs := "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	fmt.Fprintf(w, "schedule over %v (one column ~ %v)\n",
		horizon, horizon/sim.VirtualTime(width))
	for _, id := range ids {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, tr := range traces {
			if int(tr.Node) != id {
				continue
			}
			g := glyphs[int(tr.CE-1)%len(glyphs)]
			s := int(int64(tr.Start) * int64(width) / int64(horizon))
			e := int(int64(tr.End) * int64(width) / int64(horizon))
			if e <= s {
				e = s + 1
			}
			if e > width {
				e = width
			}
			for i := s; i < e; i++ {
				row[i] = g
			}
		}
		name := "controller"
		if id > 0 {
			name = fmt.Sprintf("worker%d", id)
		}
		fmt.Fprintf(w, "%-11s |%s|\n", name, row)
	}
	// Legend for the first few CEs.
	fmt.Fprint(w, "legend: ")
	max := len(traces)
	if max > 12 {
		max = 12
	}
	for i := 0; i < max; i++ {
		tr := traces[i]
		fmt.Fprintf(w, "%c=%s#%d ", glyphs[int(tr.CE-1)%len(glyphs)], tr.Label, tr.CE)
	}
	if len(traces) > max {
		fmt.Fprintf(w, "... (%d more)", len(traces)-max)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Describe writes a human-readable summary of the controller's state: the
// data-location registry, totals and failover status.
func (c *Controller) Describe(w io.Writer) {
	fmt.Fprintf(w, "GrOUT controller: %d CEs scheduled, makespan %v\n",
		c.graph.Size(), c.elapsed)
	fmt.Fprintf(w, "  policy %s; moved %v over the network (%d P2P); mean scheduling %v/CE\n",
		c.pol.Name(), c.movedBytes, c.p2pMoves, c.MeanSchedulingOverhead())
	if len(c.dead) > 0 {
		fmt.Fprintf(w, "  failovers: %d dead worker(s): %v\n", c.failovers, c.DeadWorkers())
	}
	ids := make([]dag.ArrayID, 0, len(c.arrays))
	for id := range c.arrays {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintf(w, "  arrays (%d):\n", len(ids))
	for _, id := range ids {
		arr := c.arrays[id]
		locs := arr.Locations()
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		fmt.Fprintf(w, "    #%-4d %-8v %-10s valid on %v\n",
			id, arr.Bytes(), arr.Kind, locs)
	}
}
