package core

// Multi-tenant session layer. A ControllerSession gives one client
// program (a "tenant") a private view of a shared Controller:
//
//   - Namespace isolation: the tenant names arrays by session-local IDs
//     that this layer maps onto global ones. A session can only ever
//     resolve IDs it allocated itself, so CEs from different sessions
//     can never share an array — and since DAG dependencies are
//     array-based, the global DAG never links CEs across tenants.
//   - Admission accounting: per-session in-flight CE count (the gateway
//     enforces MaxInflightCEs against it), cumulative admitted /
//     completed / aborted counters, and summed admission wait.
//   - Resource quota: a per-tenant array-byte budget; NewArray beyond it
//     fails with ErrQuotaExceeded.
//   - Clean teardown: Close waits out in-flight CEs, then frees every
//     array the session still holds — other sessions are undisturbed.
//
// Concurrency: one session's methods are NOT safe for concurrent use
// with each other — the owner (the gateway's per-session serve
// goroutine) serializes them. Different sessions over one Controller
// are safe concurrently; that is the Controller's documented submission
// contract. The internal mutex exists because Submit's completion hooks
// fire from dispatcher and fabric-reader goroutines.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"grout/internal/dag"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// SessionLimits bounds one tenant session. Zero values mean unlimited;
// the gateway applies its own defaults before constructing the session.
type SessionLimits struct {
	// MaxInflightCEs caps how many of the session's CEs may be admitted
	// but not yet dispatched. Enforced by the gateway where it admits
	// (a serve goroutine or the drain loop), not by Submit itself.
	MaxInflightCEs int
	// MaxArrayBytes caps the sum of the session's live array sizes.
	MaxArrayBytes memmodel.Bytes
	// Weight is the session's share in the gateway's weighted
	// round-robin drain; values < 1 are treated as 1.
	Weight int
	// RatePerSec caps the session's sustained admission rate in launches
	// per second via a token bucket the gateway consults at admission
	// (refilled lazily from the wall clock — no timer goroutine). Zero or
	// negative means unlimited.
	RatePerSec float64
	// Burst is the token bucket's capacity: how many launches the session
	// may admit back-to-back after idling. Values < 1 are treated as 1.
	// Ignored when RatePerSec is unlimited.
	Burst int
	// Class is the session's priority class for load shedding: when a
	// shard's admission backlog saturates, the gateway sheds class 0
	// first, class 1 next, and so on (ErrShedded).
	Class int
}

// SessionStats is a point-in-time snapshot of one session's counters.
type SessionStats struct {
	Admitted   int64 // CEs handed to the controller
	Completed  int64 // CEs whose dispatch finished cleanly
	Aborted    int64 // CEs whose dispatch ended in error
	Inflight   int   // admitted minus finished, right now
	Arrays     int   // live arrays
	ArrayBytes memmodel.Bytes
	// AdmissionWait sums the time the session's launches spent queued
	// before Submit (recorded by the gateway via NoteAdmissionWait).
	AdmissionWait time.Duration
	// AdmissionWaitP99 is the 99th-percentile wait over a uniform
	// reservoir sample (Algorithm R, admSampleCap entries) of every wait
	// recorded so far, so it keeps tracking current behavior past the
	// first admSampleCap admissions.
	AdmissionWaitP99 time.Duration
	// LaunchesShed counts launches the gateway refused with ErrShedded
	// (recorded via NoteShed; they never reach the controller).
	LaunchesShed int64
}

// admSampleCap bounds the per-session admission-wait reservoir. Beyond
// it NoteAdmissionWait keeps sampling uniformly (Algorithm R) instead of
// freezing, so the p99 reflects the whole stream, late overload
// included.
const admSampleCap = 8192

// ControllerSession is one tenant's isolated handle on a shared
// Controller. Construct with NewControllerSession.
type ControllerSession struct {
	ctl  *Controller
	name string
	lim  SessionLimits

	mu         sync.Mutex
	idle       sync.Cond // signaled when inflight drops to zero
	arrays     map[dag.ArrayID]*GlobalArray
	nextLocal  dag.ArrayID
	bytes      memmodel.Bytes
	inflight   int
	admitted   int64
	completed  int64
	aborted    int64
	admWait    time.Duration
	admSamples []time.Duration
	admSeen    int64
	admRng     *rand.Rand
	shed       int64
	// err is the first failure of a launch of this session (Err), set
	// before idle is signaled so whoever WaitIdle releases sees it.
	err    error
	closed bool
}

// NewControllerSession opens a tenant session on ctl. The name is used
// only for diagnostics and metrics labels.
func NewControllerSession(ctl *Controller, name string, lim SessionLimits) *ControllerSession {
	if lim.Weight < 1 {
		lim.Weight = 1
	}
	s := &ControllerSession{
		ctl:    ctl,
		name:   name,
		lim:    lim,
		arrays: make(map[dag.ArrayID]*GlobalArray),
		admRng: rand.New(rand.NewSource(admSeed(name))),
	}
	s.idle.L = &s.mu
	return s
}

// admSeed derives the admission reservoir's deterministic seed from the
// tenant name (FNV-1a), so repeated runs sample identically.
func admSeed(name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return int64(h & (1<<63 - 1))
}

// Name reports the tenant name given at session open.
func (s *ControllerSession) Name() string { return s.name }

// Limits reports the session's (defaulted) limits.
func (s *ControllerSession) Limits() SessionLimits { return s.lim }

// Controller exposes the shared controller (for metric readers).
func (s *ControllerSession) Controller() *Controller { return s.ctl }

func (s *ControllerSession) checkOpen() error {
	if s.closed {
		return fmt.Errorf("core: session %q is closed", s.name)
	}
	return nil
}

// MaxSessionArrayBytes is the absolute ceiling on a single array
// allocated through a session, independent of the tenant quota. Session
// lengths arrive straight off the wire, and a quota-free session must
// still not be able to drive make() into a multi-exabyte request (or an
// int64 byte-size overflow that slips past the quota check) and panic
// the shared gateway process. 1 TiB is far beyond anything the
// simulated fleet hosts while leaving local quota-free sessions
// unconstrained in practice.
const MaxSessionArrayBytes = memmodel.Bytes(1) << 40

// NewArray allocates an array charged against the session's byte quota
// and returns its session-local ID. Both kind and n come straight off
// the wire in gateway use, so they are validated here — rejected, never
// panicked on — before any size arithmetic or allocation.
func (s *ControllerSession) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	if !kind.Valid() {
		return 0, fmt.Errorf("core: session %q: invalid element kind %d", s.name, int(kind))
	}
	// Bounding n by the byte ceiling first makes the multiplication
	// below overflow-free (the ceiling is far under MaxInt64).
	if n <= 0 || n > int64(MaxSessionArrayBytes/kind.Size()) {
		return 0, fmt.Errorf("core: session %q: invalid array length %d (max %d B per array)",
			s.name, n, MaxSessionArrayBytes)
	}
	size := memmodel.Bytes(n) * kind.Size()
	if s.lim.MaxArrayBytes > 0 && s.bytes+size > s.lim.MaxArrayBytes {
		return 0, fmt.Errorf("%w: session %q holds %d B, requested %d B of a %d B quota",
			ErrQuotaExceeded, s.name, s.bytes, size, s.lim.MaxArrayBytes)
	}
	arr, err := s.ctl.NewArray(kind, n)
	if err != nil {
		return 0, err
	}
	s.nextLocal++
	local := s.nextLocal
	s.mu.Lock()
	s.arrays[local] = arr
	s.bytes += size
	s.mu.Unlock()
	return local, nil
}

// resolve maps a session-local array ID to its global array. Unknown
// IDs — including every other tenant's — are errors, not panics: they
// arrive straight off the wire.
func (s *ControllerSession) resolve(local dag.ArrayID) (*GlobalArray, error) {
	s.mu.Lock()
	arr := s.arrays[local]
	s.mu.Unlock()
	if arr == nil {
		return nil, fmt.Errorf("core: session %q: unknown array %d", s.name, local)
	}
	return arr, nil
}

// Array returns the session's array by local ID, or nil.
func (s *ControllerSession) Array(local dag.ArrayID) *GlobalArray {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.arrays[local]
}

// translate rewrites an invocation's array references from the session
// namespace to the global one.
func (s *ControllerSession) translate(inv Invocation) (Invocation, error) {
	out := inv
	out.Args = make([]ArgRef, len(inv.Args))
	for i, a := range inv.Args {
		if !a.IsArray {
			out.Args[i] = a
			continue
		}
		arr, err := s.resolve(a.Array)
		if err != nil {
			return Invocation{}, err
		}
		out.Args[i] = ArrRef(arr.ID)
	}
	return out, nil
}

// Submit translates and submits one CE on the tenant's behalf and
// tracks it until its dispatch finishes. The returned Pending reports
// the CE's completion exactly as Controller.Submit's does. A failure —
// here or later, at dispatch — is also kept as the session's Err.
func (s *ControllerSession) Submit(inv Invocation) (*Pending, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	tinv, err := s.translate(inv)
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
		return nil, err
	}
	p, err := s.ctl.Submit(tinv)
	if err != nil {
		s.mu.Lock()
		s.admitted++
		s.aborted++
		s.failLocked(err)
		s.mu.Unlock()
		return nil, err
	}
	s.mu.Lock()
	s.admitted++
	s.inflight++
	s.mu.Unlock()
	p.OnDone(func(_ sim.VirtualTime, werr error) {
		s.mu.Lock()
		s.inflight--
		if werr != nil {
			s.aborted++
			s.failLocked(werr)
		} else {
			s.completed++
		}
		if s.inflight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	})
	return p, nil
}

// failLocked keeps the session's first launch failure. Caller holds mu.
func (s *ControllerSession) failLocked(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err reports the first failure of a launch this session submitted (the
// gateway's sticky error: it poisons the session like a CUDA stream), nil
// while there has been none. A dispatch failure is recorded before the CE
// stops counting as in flight, so after WaitIdle or Elapsed Err covers
// every launch waited for.
func (s *ControllerSession) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// NoteAdmissionWait records time a launch spent queued before Submit.
// Sampling is a uniform reservoir (Algorithm R): the first admSampleCap
// waits fill it, and every later wait replaces a random slot with
// probability cap/seen — so the p99 stays an unbiased view of the whole
// stream instead of freezing on the first 8192 admissions. The RNG is
// seeded deterministically per session (admSeed).
func (s *ControllerSession) NoteAdmissionWait(d time.Duration) {
	s.mu.Lock()
	s.admWait += d
	s.admSeen++
	if len(s.admSamples) < admSampleCap {
		s.admSamples = append(s.admSamples, d)
	} else if j := s.admRng.Int63n(s.admSeen); j < admSampleCap {
		s.admSamples[j] = d
	}
	s.mu.Unlock()
}

// NoteShed records a launch the gateway refused with ErrShedded before
// it ever reached the controller.
func (s *ControllerSession) NoteShed() {
	s.mu.Lock()
	s.shed++
	s.mu.Unlock()
}

// Inflight reports the session's currently in-flight CE count.
func (s *ControllerSession) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// WaitIdle blocks until none of the session's CEs are in flight.
func (s *ControllerSession) WaitIdle() {
	s.mu.Lock()
	for s.inflight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Stats snapshots the session's counters.
func (s *ControllerSession) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{
		Admitted:         s.admitted,
		Completed:        s.completed,
		Aborted:          s.aborted,
		Inflight:         s.inflight,
		Arrays:           len(s.arrays),
		ArrayBytes:       s.bytes,
		AdmissionWait:    s.admWait,
		AdmissionWaitP99: quantileLocked(s.admSamples, 0.99),
		LaunchesShed:     s.shed,
	}
}

// quantileLocked computes the q-quantile (nearest-rank) of the samples.
func quantileLocked(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// HostWrite overwrites the array's contents with data and marks the
// controller copy authoritative. It drains first so no in-flight CE is
// mid-shipment from the buffer being overwritten; no other tenant can
// reference this array, so nothing new can touch it before the copy
// lands (this session's owner is right here).
func (s *ControllerSession) HostWrite(local dag.ArrayID, data *kernels.Buffer) (sim.VirtualTime, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	arr, err := s.resolve(local)
	if err != nil {
		return 0, err
	}
	if data == nil {
		return 0, fmt.Errorf("core: session %q: host write of array %d without data", s.name, local)
	}
	if data.Kind != arr.Kind || int64(data.Len()) != arr.Len {
		return 0, fmt.Errorf("core: session %q: host write of array %d: got %d×%v, want %d×%v",
			s.name, local, data.Len(), data.Kind, arr.Len, arr.Kind)
	}
	if err := s.ctl.Drain(); err != nil {
		return 0, err
	}
	if arr.Buf != nil {
		if err := arr.Buf.SetRawBytes(0, data.RawBytes()); err != nil {
			return 0, err
		}
	}
	return s.ctl.HostWrite(arr.ID)
}

// HostRead synchronizes the array back to the controller and returns a
// private copy of its contents (nil in cost-only mode). The tenant's
// copy never aliases controller state.
func (s *ControllerSession) HostRead(local dag.ArrayID) (*kernels.Buffer, sim.VirtualTime, error) {
	if err := s.checkOpen(); err != nil {
		return nil, 0, err
	}
	arr, err := s.resolve(local)
	if err != nil {
		return nil, 0, err
	}
	t, err := s.ctl.HostRead(arr.ID)
	if err != nil {
		return nil, 0, err
	}
	if arr.Buf == nil {
		return nil, t, nil
	}
	return arr.Buf.Clone(), t, nil
}

// Free releases the array and refunds its bytes against the quota.
func (s *ControllerSession) Free(local dag.ArrayID) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	arr, err := s.resolve(local)
	if err != nil {
		return err
	}
	if err := s.ctl.FreeArray(arr.ID); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.arrays, local)
	s.bytes -= arr.Bytes()
	s.mu.Unlock()
	return nil
}

// BuildKernel compiles and registers a kernel fleet-wide. Kernel names
// are global — sessions share the registry — so the compiled name is
// returned for the tenant to launch by.
func (s *ControllerSession) BuildKernel(src, signature string) (*kernels.Def, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return s.ctl.BuildKernel(src, signature)
}

// Elapsed waits until every CE this session submitted has dispatched and
// reports the shared cluster's virtual clock as of then. It is the
// session's synchronization point, not the fleet's: unlike
// Controller.Elapsed it neither waits for other sessions' CEs nor holds
// the submission lock while it waits. The clock itself is fleet-wide.
func (s *ControllerSession) Elapsed() sim.VirtualTime {
	s.WaitIdle()
	s.ctl.mu.Lock()
	defer s.ctl.mu.Unlock()
	return s.ctl.elapsed
}

// Close tears the session down: waits out in-flight CEs, then frees
// every array it still holds. Idempotent; safe after partial failure.
// Other sessions on the same controller are untouched.
func (s *ControllerSession) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.WaitIdle()
	s.mu.Lock()
	locals := make([]dag.ArrayID, 0, len(s.arrays))
	for id := range s.arrays {
		locals = append(locals, id)
	}
	s.mu.Unlock()
	var first error
	for _, local := range locals {
		s.mu.Lock()
		arr := s.arrays[local]
		delete(s.arrays, local)
		if arr != nil {
			s.bytes -= arr.Bytes()
		}
		s.mu.Unlock()
		if arr == nil {
			continue
		}
		if err := s.ctl.FreeArray(arr.ID); err != nil && first == nil {
			first = err
		}
	}
	return first
}
