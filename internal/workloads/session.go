// Package workloads implements the paper's evaluation suite as CE graphs:
// Black–Scholes (Figure 1), and the three GrCUDA-suite workloads of
// Figure 5 — the Machine-Learning Ensemble (MLE), Conjugate Gradient (CG)
// and dense Matrix-Vector product (MV). Each workload is written once
// against the Session interface and runs unchanged on a single-node
// GrCUDA runtime (the baseline) or on a GrOUT controller (the scale-out
// system) — the code-portability property of paper Listing 2.
package workloads

import (
	"grout/internal/core"
	"grout/internal/dag"
	"grout/internal/grcuda"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// Session is the runtime surface a workload builds against.
type Session interface {
	// NewArray allocates a framework-managed array.
	NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error)
	// Launch submits a kernel CE.
	Launch(kernel string, grid, block int, args ...core.ArgRef) error
	// HostRead makes the array consistent on the host (consume results).
	HostRead(id dag.ArrayID) error
	// HostWrite marks the array as (re)initialized by host code.
	HostWrite(id dag.ArrayID) error
	// Buffer returns the host buffer backing an array in numeric mode,
	// or nil in cost-only mode.
	Buffer(id dag.ArrayID) BufferLike
	// Free releases a framework-managed array everywhere.
	Free(id dag.ArrayID) error
	// BuildKernel compiles a mini-CUDA kernel from source (paper
	// Listing 1's buildkernel) and returns its registered name for
	// Launch. Building an already-registered kernel is a cheap cache
	// hit on every backend.
	BuildKernel(src, signature string) (string, error)
	// Elapsed reports the workload makespan so far.
	Elapsed() sim.VirtualTime
}

// BufferLike is the subset of kernels.Buffer the workloads need for
// initialization and verification, kept as an interface so sessions can
// report "no buffer" with nil.
type BufferLike interface {
	Len() int
	At(i int) float64
	Set(i int, v float64)
	Fill(v float64)
}

// SingleNode adapts a grcuda.Runtime (the paper's baseline) to Session.
type SingleNode struct {
	RT *grcuda.Runtime
}

// NewArray implements Session.
func (s *SingleNode) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	arr, err := s.RT.NewArray(kind, n)
	if err != nil {
		return 0, err
	}
	return arr.ID, nil
}

// Launch implements Session.
func (s *SingleNode) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	vals := make([]grcuda.Value, len(args))
	for i, a := range args {
		if a.IsArray {
			vals[i] = grcuda.ArrValue(s.RT.Array(a.Array))
		} else {
			vals[i] = grcuda.ScalarValue(a.Scalar)
		}
	}
	_, err := s.RT.Submit(grcuda.Invocation{Kernel: kernel, Grid: grid, Block: block, Args: vals}, 0)
	return err
}

// HostRead implements Session.
func (s *SingleNode) HostRead(id dag.ArrayID) error {
	_, err := s.RT.HostRead(id, 0)
	return err
}

// HostWrite implements Session.
func (s *SingleNode) HostWrite(id dag.ArrayID) error {
	_, err := s.RT.HostWrite(id, 0)
	return err
}

// Buffer implements Session.
func (s *SingleNode) Buffer(id dag.ArrayID) BufferLike {
	arr := s.RT.Array(id)
	if arr == nil || arr.Buf == nil {
		return nil
	}
	return arr.Buf
}

// Free implements Session.
func (s *SingleNode) Free(id dag.ArrayID) error { return s.RT.FreeArray(id) }

// BuildKernel implements Session.
func (s *SingleNode) BuildKernel(src, signature string) (string, error) {
	def, err := s.RT.BuildKernel(src, signature)
	if err != nil {
		return "", err
	}
	return def.Name, nil
}

// Elapsed implements Session.
func (s *SingleNode) Elapsed() sim.VirtualTime { return s.RT.Elapsed() }

// Grout adapts a core.Controller (the scale-out system) to Session.
type Grout struct {
	Ctl *core.Controller
}

// NewArray implements Session.
func (g *Grout) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	arr, err := g.Ctl.NewArray(kind, n)
	if err != nil {
		return 0, err
	}
	return arr.ID, nil
}

// Launch implements Session.
func (g *Grout) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	_, err := g.Ctl.Launch(core.Invocation{Kernel: kernel, Grid: grid, Block: block, Args: args})
	return err
}

// HostRead implements Session.
func (g *Grout) HostRead(id dag.ArrayID) error {
	_, err := g.Ctl.HostRead(id)
	return err
}

// HostWrite implements Session.
func (g *Grout) HostWrite(id dag.ArrayID) error {
	_, err := g.Ctl.HostWrite(id)
	return err
}

// Buffer implements Session.
func (g *Grout) Buffer(id dag.ArrayID) BufferLike {
	arr := g.Ctl.Array(id)
	if arr == nil || arr.Buf == nil {
		return nil
	}
	return arr.Buf
}

// Free implements Session.
func (g *Grout) Free(id dag.ArrayID) error { return g.Ctl.FreeArray(id) }

// BuildKernel implements Session: the controller compiles once and
// broadcasts the kernel to every worker.
func (g *Grout) BuildKernel(src, signature string) (string, error) {
	def, err := g.Ctl.BuildKernel(src, signature)
	if err != nil {
		return "", err
	}
	return def.Name, nil
}

// Elapsed implements Session.
func (g *Grout) Elapsed() sim.VirtualTime { return g.Ctl.Elapsed() }

// AsyncGrout adapts a core.Controller to Session through Submit instead
// of the blocking Launch, so consecutive launches reach the controller's
// pipeline as a stream, dispatch overlapping admission. Dispatch failures behave like a poisoned stream: the
// first one is sticky and reported by every later call and by Wait.
// Not safe for concurrent use, like the sessions it adapts.
type AsyncGrout struct {
	Ctl *core.Controller

	pending []*core.Pending
	err     error
}

// settle reaps resolved pendings without blocking; sync points call
// reap(true) to wait them all out. The first error sticks.
func (g *AsyncGrout) reap(wait bool) error {
	if wait {
		// Drain surfaces pipeline errors.
		if err := g.Ctl.Drain(); err != nil && g.err == nil {
			g.err = err
		}
		for _, p := range g.pending {
			if _, err := p.Wait(); err != nil && g.err == nil {
				g.err = err
			}
		}
		g.pending = g.pending[:0]
	}
	return g.err
}

// Wait blocks until every submitted CE has dispatched and reports the
// session's sticky error, if any.
func (g *AsyncGrout) Wait() error { return g.reap(true) }

// NewArray implements Session.
func (g *AsyncGrout) NewArray(kind memmodel.ElemKind, n int64) (dag.ArrayID, error) {
	if err := g.err; err != nil {
		return 0, err
	}
	arr, err := g.Ctl.NewArray(kind, n)
	if err != nil {
		return 0, err
	}
	return arr.ID, nil
}

// Launch implements Session: submission only; completion is observed at
// the next synchronization point.
func (g *AsyncGrout) Launch(kernel string, grid, block int, args ...core.ArgRef) error {
	if err := g.err; err != nil {
		return err
	}
	p, err := g.Ctl.Submit(core.Invocation{Kernel: kernel, Grid: grid, Block: block, Args: args})
	if err != nil {
		g.err = err
		return err
	}
	g.pending = append(g.pending, p)
	return nil
}

// HostRead implements Session; it is a synchronization point.
func (g *AsyncGrout) HostRead(id dag.ArrayID) error {
	if err := g.reap(true); err != nil {
		return err
	}
	_, err := g.Ctl.HostRead(id)
	return err
}

// HostWrite implements Session; it is a synchronization point.
func (g *AsyncGrout) HostWrite(id dag.ArrayID) error {
	if err := g.reap(true); err != nil {
		return err
	}
	_, err := g.Ctl.HostWrite(id)
	return err
}

// Buffer implements Session.
func (g *AsyncGrout) Buffer(id dag.ArrayID) BufferLike {
	arr := g.Ctl.Array(id)
	if arr == nil || arr.Buf == nil {
		return nil
	}
	return arr.Buf
}

// BuildKernel implements Session; it is a synchronization point (the
// controller drains its pipeline before registering, and the sticky
// error must win over any compile error).
func (g *AsyncGrout) BuildKernel(src, signature string) (string, error) {
	if err := g.reap(true); err != nil {
		return "", err
	}
	def, err := g.Ctl.BuildKernel(src, signature)
	if err != nil {
		return "", err
	}
	return def.Name, nil
}

// Free implements Session; it is a synchronization point.
func (g *AsyncGrout) Free(id dag.ArrayID) error {
	if err := g.reap(true); err != nil {
		return err
	}
	return g.Ctl.FreeArray(id)
}

// Elapsed implements Session; it is a synchronization point (the
// controller drains to time-stamp the makespan).
func (g *AsyncGrout) Elapsed() sim.VirtualTime {
	if g.reap(true) != nil {
		return 0
	}
	return g.Ctl.Elapsed()
}
