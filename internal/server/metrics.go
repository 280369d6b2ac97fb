package server

// Operational surface: /healthz and a Prometheus-text /metrics, fed by
// the per-session counters the core session layer keeps. Hand-rolled
// exposition — the container has no Prometheus client library, and the
// text format is trivial to emit.
//
// Label cardinality: per-tenant series carry exactly two labels, tenant
// and shard, and shard is a function of tenant (one session, one
// shard), so the series count stays O(tenants) — the sharded plane adds
// the shard dimension without multiplying series. Per-shard series
// (grout_shard_*) are O(shards). TestMetricsLabelCardinality enforces
// both bounds.

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"grout/internal/core"
)

// TenantStats is one session's public counter snapshot.
type TenantStats struct {
	Name string
	// Shard is the controller shard serving this session.
	Shard int
	// Class is the session's load-shedding priority class.
	Class int
	core.SessionStats
	// Queued counts launches sitting in the gateway queue right now.
	Queued int
	// Dropped counts launches discarded (teardown / poisoned session).
	Dropped int64
}

// ShardStats is one controller shard's aggregate snapshot.
type ShardStats struct {
	Shard int
	// Sessions currently routed to this shard.
	Sessions int
	// CEs this shard's drain handed to its controller.
	CEs int64
	// QueueDepth is the shard's aggregate admission backlog: launches
	// enqueued by its tenants and not yet submitted.
	QueueDepth int
	// Failovers counts workers this shard's controller wrote off.
	Failovers int
	// LiveCEs is how many CEs the shard controller's Global DAG holds:
	// its frontier, what is in flight and a fixed horizon — flat under an
	// endless stream, whatever CEs says.
	LiveCEs int
}

// ClassStats aggregates one load-shedding priority class across the
// gateway: the series stay O(classes), far below O(tenants).
type ClassStats struct {
	Class int
	// Shed counts launches of this class refused with ErrShedded.
	Shed int64
	// WaitP99 is the worst per-tenant p99 admission wait in the class.
	WaitP99 time.Duration
}

// Stats is a point-in-time snapshot of the whole gateway.
type Stats struct {
	Active    int   // sessions currently open
	Total     int64 // sessions ever opened
	Failovers int   // workers written off, summed over shards
	Shards    []ShardStats
	Tenants   []TenantStats
	// Classes aggregates shed rate and latency per priority class,
	// sorted by class.
	Classes []ClassStats
}

// Snapshot collects the gateway's current stats, tenants sorted by name
// and classes by class.
func (g *Gateway) Snapshot() Stats {
	g.mu.Lock()
	st := Stats{Total: g.total}
	g.mu.Unlock()
	classes := map[int]*ClassStats{}
	class := func(c int) *ClassStats {
		if cs := classes[c]; cs != nil {
			return cs
		}
		cs := &ClassStats{Class: c}
		classes[c] = cs
		return cs
	}
	for _, sh := range g.shards {
		sh.mu.Lock()
		tenants := make([]*tenant, 0, len(sh.sessions))
		for _, t := range sh.sessions {
			tenants = append(tenants, t)
		}
		ss := ShardStats{Shard: sh.idx, Sessions: len(tenants), CEs: sh.ces}
		for c, n := range sh.sheds {
			class(c).Shed += n
		}
		sh.mu.Unlock()
		ss.Failovers = sh.ctl.Failovers()
		ss.LiveCEs = sh.ctl.LiveCEs()
		for _, t := range tenants {
			ts := TenantStats{Name: t.name, Shard: sh.idx,
				Class: t.sess.Limits().Class, SessionStats: t.sess.Stats()}
			t.mu.Lock()
			ts.Queued = t.queued
			ts.Dropped = t.dropped
			t.mu.Unlock()
			ss.QueueDepth += ts.Queued
			if cs := class(ts.Class); ts.AdmissionWaitP99 > cs.WaitP99 {
				cs.WaitP99 = ts.AdmissionWaitP99
			}
			st.Tenants = append(st.Tenants, ts)
		}
		st.Active += ss.Sessions
		st.Failovers += ss.Failovers
		st.Shards = append(st.Shards, ss)
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	for _, cs := range classes {
		st.Classes = append(st.Classes, *cs)
	}
	sort.Slice(st.Classes, func(i, j int) bool { return st.Classes[i].Class < st.Classes[j].Class })
	return st
}

// Handler returns the gateway's HTTP surface: GET /healthz and
// GET /metrics (Prometheus text exposition).
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if g.isClosed() {
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, g.Snapshot())
	})
	return mux
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func writeMetrics(w http.ResponseWriter, st Stats) {
	fmt.Fprintln(w, "# HELP grout_gateway_sessions_active Tenant sessions currently open.")
	fmt.Fprintln(w, "# TYPE grout_gateway_sessions_active gauge")
	fmt.Fprintf(w, "grout_gateway_sessions_active %d\n", st.Active)
	fmt.Fprintln(w, "# HELP grout_gateway_sessions_total Tenant sessions ever opened.")
	fmt.Fprintln(w, "# TYPE grout_gateway_sessions_total counter")
	fmt.Fprintf(w, "grout_gateway_sessions_total %d\n", st.Total)
	fmt.Fprintln(w, "# HELP grout_gateway_failovers_total Workers written off, summed over shards.")
	fmt.Fprintln(w, "# TYPE grout_gateway_failovers_total counter")
	fmt.Fprintf(w, "grout_gateway_failovers_total %d\n", st.Failovers)

	fmt.Fprintln(w, "# HELP grout_shard_ce_total Launches each shard's drain handed to its controller.")
	fmt.Fprintln(w, "# TYPE grout_shard_ce_total counter")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "grout_shard_ce_total{shard=\"%d\"} %d\n", s.Shard, s.CEs)
	}
	fmt.Fprintln(w, "# HELP grout_shard_queue_depth Launches waiting in each shard's admission queues.")
	fmt.Fprintln(w, "# TYPE grout_shard_queue_depth gauge")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "grout_shard_queue_depth{shard=\"%d\"} %d\n", s.Shard, s.QueueDepth)
	}
	fmt.Fprintln(w, "# HELP grout_shard_dag_live_ces CEs each shard controller's dependency graph currently holds (bounded; completed CEs retire).")
	fmt.Fprintln(w, "# TYPE grout_shard_dag_live_ces gauge")
	for _, s := range st.Shards {
		fmt.Fprintf(w, "grout_shard_dag_live_ces{shard=\"%d\"} %d\n", s.Shard, s.LiveCEs)
	}

	perTenant := []struct {
		name, help, typ string
		val             func(TenantStats) string
	}{
		{"grout_gateway_ces_admitted_total", "CEs handed to the controller.", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Admitted) }},
		{"grout_gateway_ces_completed_total", "CEs whose dispatch finished cleanly.", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Completed) }},
		{"grout_gateway_ces_aborted_total", "CEs whose dispatch failed.", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Aborted) }},
		{"grout_gateway_launches_dropped_total", "Launches discarded before submission.", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Dropped) }},
		{"grout_gateway_launches_shed_total", "Launches refused with ErrShedded (class-based load shedding).", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.LaunchesShed) }},
		{"grout_gateway_launch_queue_depth", "Launches waiting in the admission queue.", "gauge",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Queued) }},
		{"grout_gateway_inflight_ces", "CEs submitted but not yet dispatched.", "gauge",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.Inflight) }},
		{"grout_gateway_array_bytes", "Live framework-managed array bytes.", "gauge",
			func(t TenantStats) string { return fmt.Sprintf("%d", t.ArrayBytes) }},
		{"grout_gateway_admission_wait_seconds_total", "Time launches spent queued before admission.", "counter",
			func(t TenantStats) string { return fmt.Sprintf("%g", t.AdmissionWait.Seconds()) }},
		{"grout_gateway_admission_wait_p99_seconds", "99th-percentile admission wait.", "gauge",
			func(t TenantStats) string { return fmt.Sprintf("%g", t.AdmissionWaitP99.Seconds()) }},
	}
	for _, m := range perTenant {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, t := range st.Tenants {
			fmt.Fprintf(w, "%s{tenant=\"%s\",shard=\"%d\"} %s\n", m.name, escapeLabel(t.Name), t.Shard, m.val(t))
		}
	}

	// Per-class overload series: O(classes) cardinality, one label.
	fmt.Fprintln(w, "# HELP grout_class_shed_total Launches refused with ErrShedded, by priority class.")
	fmt.Fprintln(w, "# TYPE grout_class_shed_total counter")
	for _, c := range st.Classes {
		fmt.Fprintf(w, "grout_class_shed_total{class=\"%d\"} %d\n", c.Class, c.Shed)
	}
	fmt.Fprintln(w, "# HELP grout_class_admission_wait_p99_seconds Worst per-tenant p99 admission wait, by priority class.")
	fmt.Fprintln(w, "# TYPE grout_class_admission_wait_p99_seconds gauge")
	for _, c := range st.Classes {
		fmt.Fprintf(w, "grout_class_admission_wait_p99_seconds{class=\"%d\"} %g\n", c.Class, c.WaitP99.Seconds())
	}
}
