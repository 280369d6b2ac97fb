package main

// The traced run's span recorder. Seam wrappers (seams.go) call begin/end
// around every call into a layer; spans stay in memory as per-name duration
// series, and a bounded sample keeps full records (name, start, end,
// parent, request id) for the Chrome-trace file written at exit.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one seam call site. The string is both the Chrome-trace
// event name and the prefix of the per-layer metrics derived from it.
type spanKind int

const (
	spSessionLaunch spanKind = iota // Session.Launch (gateway: the ack)
	spSessionSync                   // Sync / Wait / HostRead / HostWrite / Free / BuildKernel
	spPolicyAssign                  // Policy.Assign, or one AssignBatch
	spFabricLaunch                  // Fabric.Launch
	spFabricEnsure                  // Fabric.EnsureArray
	spFabricMove                    // Fabric.MoveArray / MoveArrays
	spFabricOther                   // FreeArray, BuildKernel, Healthy
	spOp                            // one whole closed-loop step (root span)
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"session.launch", "session.sync", "policy.assign", "fabric.launch",
	"fabric.ensure", "fabric.move", "fabric.other", "op",
}

// sampleEvery is the Chrome-trace sampling stride: one closed-loop step
// (or one seam call, where the seam cannot tell which step it serves) in
// this many keeps its full record.
const sampleEvery = 64

// maxSampledSpans bounds the Chrome-trace file whatever the run length.
const maxSampledSpans = 200_000

// reqID packs tenant and operation sequence number: tenant#op-seq. Zero
// means the seam could not tell.
type reqID uint64

func makeReqID(tenant int, seq uint64) reqID { return reqID(uint64(tenant+1)<<48 | seq&(1<<48-1)) }

func (r reqID) tenant() int { return int(r>>48) - 1 }
func (r reqID) seq() uint64 { return uint64(r) & (1<<48 - 1) }

// spanRecord is one fully recorded (sampled) span.
type spanRecord struct {
	kind       spanKind
	start, end int64 // ns since tracer start
	req        reqID
	parent     int32 // index into tracer.sampled of the enclosing op span, -1 for roots
}

type series struct {
	mu     sync.Mutex
	durs   []int64 // ns
	busy   int64   // sum of durs
	errors int64
}

// tracer is shared by every seam of one traced run. A nil *tracer is the
// untraced run: every method is a no-op, so seam call sites need no
// branches of their own.
type tracer struct {
	t0     time.Time
	series [numSpanKinds]series

	sampleMu sync.Mutex
	sampled  []spanRecord
	seamTick atomic.Uint64

	// ops holds the exact per-step linkage used in depth-1 workloads:
	// one accumulator per tenant collects the policy and fabric time
	// spent while that tenant's single outstanding step is open.
	ops []opAccumulator
	// arraysPerTenant maps a global array ID to its tenant in the
	// gateway workloads (set-up allocates tenant by tenant, so global
	// IDs are tenant-major); 0 disables the mapping.
	arraysPerTenant int
}

// opAccumulator is the open step of one tenant. The seams add to it from
// controller goroutines while the tenant goroutine waits, hence atomics.
type opAccumulator struct {
	open      atomic.Bool
	seq       atomic.Uint64
	sampleIdx atomic.Int32
	policyNs  atomic.Int64
	launchNs  atomic.Int64
	otherNs   atomic.Int64
	_         [24]byte // keep tenants' accumulators off one cache line
}

func newTracer(tenants, arraysPerTenant int) *tracer {
	return &tracer{t0: time.Now(), ops: make([]opAccumulator, tenants), arraysPerTenant: arraysPerTenant}
}

// now is the span clock: nanoseconds since the tracer started (0 for the
// nil tracer, whose record ignores it).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// at converts a wall-clock reading to the span clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// tenantOfArray maps a global array ID to the tenant that owns it, or -1.
func (t *tracer) tenantOfArray(id int64) int {
	if t == nil || t.arraysPerTenant == 0 || id < 1 {
		return -1
	}
	tn := int(id-1) / t.arraysPerTenant
	if tn >= len(t.ops) {
		return -1
	}
	return tn
}

// record files one finished span under its kind; tenant is -1 when the
// seam cannot tell whose work it was.
func (t *tracer) record(kind spanKind, start, end int64, tenant int, failed bool) {
	if t == nil {
		return
	}
	d := end - start
	s := &t.series[kind]
	s.mu.Lock()
	s.durs = append(s.durs, d)
	s.busy += d
	if failed {
		s.errors++
	}
	s.mu.Unlock()

	var req reqID
	parent := int32(-1)
	sample := false
	if tenant >= 0 && tenant < len(t.ops) && t.ops[tenant].open.Load() {
		// Exact linkage: the tenant has one step open, so this seam
		// call serves it.
		op := &t.ops[tenant]
		switch kind {
		case spPolicyAssign:
			op.policyNs.Add(d)
		case spFabricLaunch:
			op.launchNs.Add(d)
		case spFabricEnsure, spFabricMove, spFabricOther:
			op.otherNs.Add(d)
		}
		req = makeReqID(tenant, op.seq.Load())
		if idx := op.sampleIdx.Load(); idx >= 0 {
			parent, sample = idx, true
		}
	} else {
		if tenant >= 0 {
			req = makeReqID(tenant, 0)
		}
		sample = t.seamTick.Add(1)%sampleEvery == 0
	}
	if sample {
		t.keep(spanRecord{kind: kind, start: start, end: end, req: req, parent: parent})
	}
}

func (t *tracer) keep(r spanRecord) int32 {
	t.sampleMu.Lock()
	defer t.sampleMu.Unlock()
	if len(t.sampled) >= maxSampledSpans {
		return -1
	}
	t.sampled = append(t.sampled, r)
	return int32(len(t.sampled) - 1)
}

// opSplit is one closed step's exact decomposition.
type opSplit struct {
	totalNs, policyNs, launchNs, otherNs int64
}

// beginOp opens tenant's step seq; the seams attribute their time to it
// until endOp.
func (t *tracer) beginOp(tenant int, seq uint64) int64 {
	if t == nil {
		return 0
	}
	op := &t.ops[tenant]
	op.policyNs.Store(0)
	op.launchNs.Store(0)
	op.otherNs.Store(0)
	op.seq.Store(seq)
	start := t.now()
	idx := int32(-1)
	if seq%sampleEvery == 0 {
		idx = t.keep(spanRecord{kind: spOp, start: start, req: makeReqID(tenant, seq), parent: -1})
	}
	op.sampleIdx.Store(idx)
	op.open.Store(true)
	return start
}

// endOp closes the step and returns its split.
func (t *tracer) endOp(tenant int, start int64) opSplit {
	if t == nil {
		return opSplit{}
	}
	op := &t.ops[tenant]
	end := t.now()
	op.open.Store(false)
	if idx := op.sampleIdx.Load(); idx >= 0 {
		t.sampleMu.Lock()
		t.sampled[idx].end = end
		t.sampleMu.Unlock()
	}
	s := &t.series[spOp]
	s.mu.Lock()
	s.durs = append(s.durs, end-start)
	s.busy += end - start
	s.mu.Unlock()
	return opSplit{totalNs: end - start, policyNs: op.policyNs.Load(),
		launchNs: op.launchNs.Load(), otherNs: op.otherNs.Load()}
}

// spanStats is one kind's aggregate.
type spanStats struct {
	calls    int
	errors   int64
	busy     time.Duration
	p50, p99 time.Duration
}

func (t *tracer) stats(kind spanKind) spanStats {
	if t == nil {
		return spanStats{}
	}
	s := &t.series[kind]
	s.mu.Lock()
	durs := append([]int64(nil), s.durs...)
	st := spanStats{calls: len(durs), errors: s.errors, busy: time.Duration(s.busy)}
	s.mu.Unlock()
	slices.Sort(durs)
	st.p50 = time.Duration(quantileSorted(durs, 0.50))
	st.p99 = time.Duration(quantileSorted(durs, 0.99))
	return st
}

// chromeEvent is one "complete" event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace dumps the sampled spans; tid is the tenant (0 when
// unknown) so each tenant's steps and their children stack on one row.
func (t *tracer) writeChromeTrace(path string) error {
	if t == nil {
		return nil
	}
	t.sampleMu.Lock()
	recs := append([]spanRecord(nil), t.sampled...)
	t.sampleMu.Unlock()
	events := make([]chromeEvent, 0, len(recs))
	for i, r := range recs {
		if r.end < r.start {
			continue // a step still open when the run ended
		}
		ev := chromeEvent{Name: spanNames[r.kind], Ph: "X",
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Pid: 1, Tid: r.req.tenant() + 1,
			Args: map[string]any{"span": i, "parent": r.parent}}
		if r.req != 0 {
			ev.Args["tenant"] = r.req.tenant()
			ev.Args["op_seq"] = r.req.seq()
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
