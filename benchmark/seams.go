package main

// Seam wrappers: the three interfaces the benchmark can reach from
// outside the program — workloads.Session, core.Fabric, policy.Policy —
// each wrapped so a traced run records a span per call. The controller
// probes fabrics and policies for optional interfaces with type
// assertions, so a wrapper must expose exactly the optional set of what
// it wraps or the traced run takes different code paths than the
// untraced one (seams_test.go holds the wrappers to that).

import (
	"fmt"
	"time"

	"grout/internal/cluster"
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/policy"
	"grout/internal/sim"
	"grout/internal/workloads"
)

// ---- fabric ----

// tracedFabric forwards the mandatory core.Fabric methods. Estimates
// (EstimateTransfer and the optional estimators) are pure in-memory
// arithmetic on the scheduling path, so they forward without a span and
// their time stays in the layer above the fabric.
type tracedFabric struct {
	inner core.Fabric
	tr    *tracer
}

func (f *tracedFabric) Workers() []cluster.NodeID { return f.inner.Workers() }

func (f *tracedFabric) EnsureArray(w cluster.NodeID, meta grcuda.ArrayMeta) error {
	start := f.tr.now()
	err := f.inner.EnsureArray(w, meta)
	f.tr.record(spFabricEnsure, start, f.tr.now(), f.tr.tenantOfArray(int64(meta.ID)), err != nil)
	return err
}

func (f *tracedFabric) MoveArray(id dag.ArrayID, src, dst cluster.NodeID, srcReady sim.VirtualTime,
	srcBuf, dstBuf *kernels.Buffer) (sim.VirtualTime, error) {
	start := f.tr.now()
	at, err := f.inner.MoveArray(id, src, dst, srcReady, srcBuf, dstBuf)
	f.tr.record(spFabricMove, start, f.tr.now(), f.tr.tenantOfArray(int64(id)), err != nil)
	return at, err
}

func (f *tracedFabric) Launch(w cluster.NodeID, inv core.Invocation, ready sim.VirtualTime) (sim.VirtualTime, error) {
	start := f.tr.now()
	end, err := f.inner.Launch(w, inv, ready)
	tenant := -1
	for _, a := range inv.Args {
		if a.IsArray {
			tenant = f.tr.tenantOfArray(int64(a.Array))
			break
		}
	}
	f.tr.record(spFabricLaunch, start, f.tr.now(), tenant, err != nil)
	return end, err
}

func (f *tracedFabric) EstimateTransfer(src, dst cluster.NodeID, n memmodel.Bytes) sim.VirtualTime {
	return f.inner.EstimateTransfer(src, dst, n)
}

func (f *tracedFabric) FreeArray(w cluster.NodeID, id dag.ArrayID) error {
	start := f.tr.now()
	err := f.inner.FreeArray(w, id)
	f.tr.record(spFabricOther, start, f.tr.now(), f.tr.tenantOfArray(int64(id)), err != nil)
	return err
}

func (f *tracedFabric) Healthy(w cluster.NodeID) bool {
	start := f.tr.now()
	ok := f.inner.Healthy(w)
	f.tr.record(spFabricOther, start, f.tr.now(), -1, false)
	return ok
}

func (f *tracedFabric) buildKernel(src, signature string) error {
	start := f.tr.now()
	err := f.inner.(core.KernelBuilder).BuildKernel(src, signature)
	f.tr.record(spFabricOther, start, f.tr.now(), -1, err != nil)
	return err
}

// tracedTCPFabric carries the optional set of transport.TCPFabric:
// ConcurrentDispatcher and KernelBuilder.
type tracedTCPFabric struct{ tracedFabric }

func (f *tracedTCPFabric) ConcurrentDispatch() bool {
	return f.inner.(core.ConcurrentDispatcher).ConcurrentDispatch()
}

func (f *tracedTCPFabric) BuildKernel(src, signature string) error {
	return f.buildKernel(src, signature)
}

// tracedLocalFabric carries the optional set of core.LocalFabric:
// BulkMover, StallPredictor, BulkEstimator and KernelBuilder.
type tracedLocalFabric struct{ tracedFabric }

func (f *tracedLocalFabric) MoveArrays(dst cluster.NodeID, ids []dag.ArrayID, srcReady sim.VirtualTime,
	bufs []*kernels.Buffer) (sim.VirtualTime, error) {
	start := f.tr.now()
	at, err := f.inner.(core.BulkMover).MoveArrays(dst, ids, srcReady, bufs)
	tenant := -1
	if len(ids) > 0 {
		tenant = f.tr.tenantOfArray(int64(ids[0]))
	}
	f.tr.record(spFabricMove, start, f.tr.now(), tenant, err != nil)
	return at, err
}

func (f *tracedLocalFabric) PredictStall(w cluster.NodeID, add, working memmodel.Bytes,
	pattern memmodel.Pattern) sim.VirtualTime {
	return f.inner.(core.StallPredictor).PredictStall(w, add, working, pattern)
}

func (f *tracedLocalFabric) EstimateTransferAll(src cluster.NodeID, n memmodel.Bytes,
	dsts []cluster.NodeID, out []sim.VirtualTime) {
	f.inner.(core.BulkEstimator).EstimateTransferAll(src, n, dsts, out)
}

func (f *tracedLocalFabric) BuildKernel(src, signature string) error {
	return f.buildKernel(src, signature)
}

// fabricOptionals lists which optional fabric interfaces f implements, in
// a fixed order; the wrapper choice and the fidelity test both key on it.
func fabricOptionals(f core.Fabric) [5]bool {
	_, bm := f.(core.BulkMover)
	_, sp := f.(core.StallPredictor)
	_, be := f.(core.BulkEstimator)
	_, cd := f.(core.ConcurrentDispatcher)
	_, kb := f.(core.KernelBuilder)
	return [5]bool{bm, sp, be, cd, kb}
}

// wrapFabric returns inner wrapped for tracing, or inner itself for an
// untraced run. A fabric whose optional set matches neither known shape
// is refused rather than wrapped unfaithfully.
func wrapFabric(inner core.Fabric, tr *tracer) (core.Fabric, error) {
	if tr == nil {
		return inner, nil
	}
	base := tracedFabric{inner: inner, tr: tr}
	switch fabricOptionals(inner) {
	case [5]bool{false, false, false, true, true}:
		return &tracedTCPFabric{base}, nil
	case [5]bool{true, true, true, false, true}:
		return &tracedLocalFabric{base}, nil
	}
	return nil, fmt.Errorf("benchmark: no traced wrapper matches the optional interfaces of %T", inner)
}

// ---- policy ----

// tracedPolicy forwards the mandatory policy.Policy methods.
type tracedPolicy struct {
	inner policy.Policy
	tr    *tracer
}

func (p *tracedPolicy) Name() string        { return p.inner.Name() }
func (p *tracedPolicy) NeedsDataView() bool { return p.inner.NeedsDataView() }

func (p *tracedPolicy) tenantOf(req policy.Request) int {
	if req.CE != nil && len(req.CE.Accesses) > 0 {
		return p.tr.tenantOfArray(int64(req.CE.Accesses[0].Array))
	}
	return -1
}

func (p *tracedPolicy) Assign(req policy.Request) cluster.NodeID {
	start := p.tr.now()
	w := p.inner.Assign(req)
	p.tr.record(spPolicyAssign, start, p.tr.now(), p.tenantOf(req), false)
	return w
}

// assignBatch times one AssignBatch and files an equal share of it under
// every request, so assign_calls counts placement decisions whichever
// entry point the controller used.
func (p *tracedPolicy) assignBatch(reqs []policy.Request) []cluster.NodeID {
	start := p.tr.now()
	out := p.inner.(policy.BatchAssigner).AssignBatch(reqs)
	end := p.tr.now()
	if n := int64(len(reqs)); n > 0 {
		share := (end - start) / n
		for i, req := range reqs {
			s := start + int64(i)*share
			p.tr.record(spPolicyAssign, s, s+share, p.tenantOf(req), false)
		}
	}
	return out
}

type tracedBatchPolicy struct{ tracedPolicy }

func (p *tracedBatchPolicy) AssignBatch(reqs []policy.Request) []cluster.NodeID {
	return p.assignBatch(reqs)
}

type tracedStallPolicy struct{ tracedPolicy }

func (p *tracedStallPolicy) NeedsStallView() bool {
	return p.inner.(policy.StallAware).NeedsStallView()
}

type tracedBatchStallPolicy struct{ tracedPolicy }

func (p *tracedBatchStallPolicy) AssignBatch(reqs []policy.Request) []cluster.NodeID {
	return p.assignBatch(reqs)
}

func (p *tracedBatchStallPolicy) NeedsStallView() bool {
	return p.inner.(policy.StallAware).NeedsStallView()
}

// policyOptionals lists which optional policy interfaces p implements.
func policyOptionals(p policy.Policy) [2]bool {
	_, ba := p.(policy.BatchAssigner)
	_, sa := p.(policy.StallAware)
	return [2]bool{ba, sa}
}

// wrapPolicy returns inner wrapped for tracing (inner itself when tr is
// nil), exposing exactly inner's optional interfaces.
func wrapPolicy(inner policy.Policy, tr *tracer) policy.Policy {
	if tr == nil {
		return inner
	}
	base := tracedPolicy{inner: inner, tr: tr}
	switch policyOptionals(inner) {
	case [2]bool{true, false}:
		return &tracedBatchPolicy{base}
	case [2]bool{false, true}:
		return &tracedStallPolicy{base}
	case [2]bool{true, true}:
		return &tracedBatchStallPolicy{base}
	}
	return &base
}

// ---- session ----

// syncer is the part of a session that waits for submitted launches; the
// gateway client calls it Sync, AsyncGrout calls it Wait.
type syncer interface{ Sync() error }

// waitSyncer adapts AsyncGrout's Wait to syncer.
type waitSyncer struct{ *workloads.AsyncGrout }

func (w waitSyncer) Sync() error { return w.Wait() }

// seamSession wraps a workloads.Session. It always times Launch (that is
// the launch_p50_us / launch_p99_us measurement of the workloads whose
// programs drive the session themselves) and counts operations; with a
// tracer it also records a span per call.
type seamSession struct {
	inner  workloads.Session
	sync   syncer
	tr     *tracer
	tenant int

	lat      *latencySet
	seg      int
	ops      int
	failed   int
	launches int
	// setupDur sums NewArray and BuildKernel: allocation and kernel
	// builds belong to set-up even when a program interleaves them with
	// its launches.
	setupDur time.Duration
}

func (s *seamSession) note(err error) error {
	s.ops++
	if err != nil {
		s.failed++
	}
	return err
}

func (s *seamSession) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	t := time.Now()
	id, err := s.inner.NewArray(kind, n)
	s.setupDur += time.Since(t)
	return id, s.note(err)
}

func (s *seamSession) BuildKernel(src, signature string) (string, error) {
	t := time.Now()
	name, err := s.inner.BuildKernel(src, signature)
	s.setupDur += time.Since(t)
	return name, s.note(err)
}

func (s *seamSession) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	t := time.Now()
	err := s.inner.Launch(kernel, grid, block, args...)
	d := time.Since(t)
	s.launches++
	if s.lat != nil {
		s.lat.add(s.seg, d)
	}
	if s.tr != nil {
		end := s.tr.now()
		s.tr.record(spSessionLaunch, end-int64(d), end, s.tenant, err != nil)
	}
	return s.note(err)
}

// synced runs one synchronizing call under a session.sync span.
func (s *seamSession) synced(f func() error) error {
	start := s.tr.now()
	err := f()
	s.tr.record(spSessionSync, start, s.tr.now(), s.tenant, err != nil)
	return s.note(err)
}

func (s *seamSession) HostRead(id dag.ArrayID) error {
	return s.synced(func() error { return s.inner.HostRead(id) })
}

func (s *seamSession) HostWrite(id dag.ArrayID) error {
	return s.synced(func() error { return s.inner.HostWrite(id) })
}

func (s *seamSession) Free(id dag.ArrayID) error {
	return s.synced(func() error { return s.inner.Free(id) })
}

func (s *seamSession) Sync() error { return s.synced(s.sync.Sync) }

func (s *seamSession) Buffer(id dag.ArrayID) workloads.BufferLike { return s.inner.Buffer(id) }
func (s *seamSession) Elapsed() sim.VirtualTime                   { return s.inner.Elapsed() }
