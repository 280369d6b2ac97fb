// Package optimizer rewrites a lookahead window of admitted-but-
// undispatched CEs: elementwise kernel fusion, transfer coalescing, and
// redundant-move planning (DESIGN.md §5.6). The controller parks window
// entries at admission, runs the passes, then admits the rewritten
// window in one batch — so every rewrite happens before the CEs enter the
// dispatch FIFO, and the serial-equivalence guarantee of pipelined
// dispatch carries over unchanged.
//
// The package is deliberately state-free: it sees plain Op descriptors
// (kernel def, launch config, argument bindings, tenant tag) and returns
// rewritten descriptors plus plans. Controller state — versions,
// lineage, placement — stays in internal/core, which translates both
// ways. That keeps the passes unit-testable without a cluster and keeps
// the import direction acyclic (core → optimizer → minicuda).
package optimizer

import (
	"grout/internal/kernels"
	"grout/internal/minicuda"
)

// Arg is one kernel argument of a window op: an array binding (Array
// nonzero, Meta.IsBuffer set) or a scalar (Meta.Scalar).
type Arg struct {
	// Array is the controller-global array ID; zero for scalars.
	Array uint64
	// Meta is the scheduler-visible shape, reused for access analysis of
	// rewritten kernels.
	Meta kernels.ArgMeta
}

// Op is one parked CE, stripped to what the passes need.
type Op struct {
	Def         *kernels.Def
	Grid, Block int
	Args        []Arg
	// Tenant isolates namespaces: fusion never combines ops with
	// different tags (nil is the direct embedded client). Compared
	// with ==, so tags must be comparable (core uses session pointers).
	Tenant any
	// Ref is the caller's opaque handle for this op (the controller's
	// window entry); passes never inspect it.
	Ref any
	// Absorbed collects the Refs of producers fused into this op, in
	// fusion order. The controller resolves their completions alongside
	// this op's.
	Absorbed []any
	// DroppedArrays lists array IDs whose writes were elided by fusion
	// (dead intermediates): the rewritten op no longer produces a new
	// version of them.
	DroppedArrays []uint64
}

// metas projects the op's argument metadata for Def.Access/CostLaunch.
func (o *Op) metas() []kernels.ArgMeta {
	m := make([]kernels.ArgMeta, len(o.Args))
	for i, a := range o.Args {
		m[i] = a.Meta
	}
	return m
}

// elementwise returns the op's fusion descriptor, if its kernel has the
// canonical shape.
func (o *Op) elementwise() *minicuda.Elementwise {
	ew, _ := o.Def.Fusion.(*minicuda.Elementwise)
	return ew
}

// touches reports whether any argument binds the array.
func (o *Op) touches(id uint64) bool {
	for _, a := range o.Args {
		if a.Array == id {
			return true
		}
	}
	return false
}

// Compiler turns fused kernel source into a registered definition. The
// controller's implementation goes through the shared compile cache and
// broadcasts the build to the fabric, exactly like a client BuildKernel.
type Compiler func(src string) (*kernels.Def, error)
