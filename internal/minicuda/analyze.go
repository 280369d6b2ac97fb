package minicuda

import (
	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// idxClass summarizes what an index expression depends on; the UVM cost
// model turns it into a page-visit pattern.
type idxClass struct {
	// hasLoad: the index depends on data loaded from an array
	// (data-dependent gather — random access).
	hasLoad bool
	// hasTid: the index depends on the thread coordinates.
	hasTid bool
	// tidLinear: the thread-id term has unit coefficient (the canonical
	// blockIdx*blockDim+threadIdx global id, possibly plus constants).
	tidLinear bool
	// tidScaled: the thread-id term is multiplied by something.
	tidScaled bool
	// hasLoop / loopScaled: same for loop-counter terms.
	hasLoop    bool
	loopScaled bool
}

func (c idxClass) merge(o idxClass) idxClass {
	return idxClass{
		hasLoad:    c.hasLoad || o.hasLoad,
		hasTid:     c.hasTid || o.hasTid,
		tidLinear:  c.tidLinear || o.tidLinear,
		tidScaled:  c.tidScaled || o.tidScaled,
		hasLoop:    c.hasLoop || o.hasLoop,
		loopScaled: c.loopScaled || o.loopScaled,
	}
}

// pattern maps an index class to the memory-model pattern.
func (c idxClass) pattern() memmodel.Pattern {
	switch {
	case c.hasLoad:
		return memmodel.Random
	case c.hasTid && c.tidScaled && c.hasLoop && !c.loopScaled:
		// row*cols + j: each thread sweeps a contiguous row; globally a
		// dense sequential cover.
		return memmodel.Sequential
	case c.hasTid && c.tidLinear && !c.tidScaled && !c.loopScaled:
		return memmodel.Sequential
	case c.hasTid:
		return memmodel.Strided
	default:
		// No thread dependence: every thread touches the same elements.
		return memmodel.Broadcast
	}
}

// analysis is the static summary of a kernel.
type analysis struct {
	// access[i] describes pointer parameter i (zero for scalars).
	access []memmodel.Access
	// ops estimates per-thread operation count given the scalar
	// arguments (loop bounds are often scalar parameters).
	ops func(args scalarArgs) float64
}

// scalarArgs resolves a launch's scalar parameters by name: the kernel's
// parameters beside the launch's argument metadata. It is passed by value,
// so pricing a launch allocates nothing.
type scalarArgs struct {
	params []Param
	meta   []kernels.ArgMeta
	// looked, when set, records that the estimate consulted an argument.
	looked *bool
}

// lookup returns the value of the named scalar parameter.
func (a scalarArgs) lookup(name string) (float64, bool) {
	if a.looked != nil {
		*a.looked = true
	}
	for i, p := range a.params {
		if p.Name == name && !p.Pointer && i < len(a.meta) {
			return a.meta[i].Scalar, true
		}
	}
	return 0, false
}

// analyzer walks the kernel body.
type analyzer struct {
	k *Kernel
	// varClass tracks locals' index classes (fixpoint over assignments).
	varClass map[string]idxClass
	// reads/writes per pointer param name.
	reads  map[string]bool
	writes map[string]bool
	// patterns accumulates the worst pattern seen per param.
	patterns map[string]memmodel.Pattern
	changed  bool
}

// analyze produces the kernel's static summary.
func analyze(k *Kernel) analysis {
	a := &analyzer{
		k:        k,
		varClass: make(map[string]idxClass),
		reads:    make(map[string]bool),
		writes:   make(map[string]bool),
		patterns: make(map[string]memmodel.Pattern),
	}
	// Fixpoint over variable classes (assignments can chain); the class
	// lattice is tiny so few rounds suffice.
	for round := 0; round < 4; round++ {
		a.changed = false
		a.walkStmts(k.Body, false)
		if !a.changed {
			break
		}
	}
	// Final pass records array access patterns with settled classes.
	a.reads = make(map[string]bool)
	a.writes = make(map[string]bool)
	a.patterns = make(map[string]memmodel.Pattern)
	a.walkStmts(k.Body, true)

	accs := make([]memmodel.Access, len(k.Params))
	for i, prm := range k.Params {
		if !prm.Pointer {
			continue
		}
		mode := memmodel.Read
		r, w := a.reads[prm.Name], a.writes[prm.Name]
		switch {
		case r && w:
			mode = memmodel.ReadWrite
		case w:
			mode = memmodel.Write
		}
		pat, ok := a.patterns[prm.Name]
		if !ok {
			pat = memmodel.Sequential
		}
		accs[i] = memmodel.Access{Param: i, Mode: mode, Pattern: pat, Fraction: 1, Passes: 1}
	}
	return analysis{access: accs, ops: opsEstimator(k)}
}

// recordPattern widens the recorded pattern for a parameter (higher
// collapse risk wins: Random > Broadcast > Strided > Sequential in terms
// of cost impact ordering used here).
func (a *analyzer) recordPattern(param string, p memmodel.Pattern) {
	cur, ok := a.patterns[param]
	if !ok || patternSeverity(p) > patternSeverity(cur) {
		a.patterns[param] = p
	}
}

func patternSeverity(p memmodel.Pattern) int {
	switch p {
	case memmodel.Random:
		return 3
	case memmodel.Broadcast:
		return 2
	case memmodel.Strided:
		return 1
	default:
		return 0
	}
}

// setVarClass merges a class into a variable, tracking fixpoint progress.
func (a *analyzer) setVarClass(name string, c idxClass) {
	merged := a.varClass[name].merge(c)
	if merged != a.varClass[name] {
		a.varClass[name] = merged
		a.changed = true
	}
}

func (a *analyzer) walkStmts(stmts []Stmt, record bool) {
	for _, s := range stmts {
		a.walkStmt(s, record, false, false)
	}
}

// walkStmt traverses a statement; inLoop marks loop bodies so counters
// assigned there keep their loop character. condLoad marks statements
// guarded by a data-dependent branch (a condition that loads from an
// array): a store there is a *partial* overwrite — threads whose branch
// folds the other way keep the array's old bytes — so the parameter must
// read as well as write, or the runtime would treat the launch as a full
// overwrite and skip shipping the bytes the kernel preserves. The
// canonical thread guard (i < n, tid and scalars only) stays a full
// overwrite, as every kernel carries it.
func (a *analyzer) walkStmt(s Stmt, record, inLoop, condLoad bool) {
	switch st := s.(type) {
	case *DeclStmt:
		if st.Init != nil {
			a.walkExpr(st.Init, record)
			a.setVarClass(st.Name, a.classify(st.Init))
		}
	case *AssignStmt:
		a.walkExpr(st.Value, record)
		if id, ok := st.Target.(*IdentExpr); ok {
			c := a.classify(st.Value)
			if st.Op != "=" {
				c = c.merge(a.varClass[id.Name])
			}
			if inLoop {
				c = c.merge(idxClass{hasLoop: true})
			}
			a.setVarClass(id.Name, c)
		}
		if ix, ok := st.Target.(*IndexExpr); ok {
			a.walkExpr(ix.Idx, record)
			if record {
				a.writes[ix.Base] = true
				if st.Op != "=" || condLoad {
					a.reads[ix.Base] = true
				}
				a.recordPattern(ix.Base, a.classify(ix.Idx).pattern())
			}
		}
	case *IncStmt:
		if id, ok := st.Target.(*IdentExpr); ok {
			a.setVarClass(id.Name, a.varClass[id.Name].merge(idxClass{hasLoop: true}))
		}
		if ix, ok := st.Target.(*IndexExpr); ok {
			a.walkExpr(ix.Idx, record)
			if record {
				a.reads[ix.Base] = true
				a.writes[ix.Base] = true
				a.recordPattern(ix.Base, a.classify(ix.Idx).pattern())
			}
		}
	case *IfStmt:
		a.walkExpr(st.Cond, record)
		branch := condLoad || a.classify(st.Cond).hasLoad
		for _, t := range st.Then {
			a.walkStmt(t, record, inLoop, branch)
		}
		for _, e := range st.Else {
			a.walkStmt(e, record, inLoop, branch)
		}
	case *ForStmt:
		if st.Init != nil {
			a.walkStmt(st.Init, record, inLoop, condLoad)
			// The induction variable is a loop counter.
			if d, ok := st.Init.(*DeclStmt); ok {
				a.setVarClass(d.Name, a.varClass[d.Name].merge(idxClass{hasLoop: true}))
			}
			if as, ok := st.Init.(*AssignStmt); ok {
				if id, ok := as.Target.(*IdentExpr); ok {
					a.setVarClass(id.Name, a.varClass[id.Name].merge(idxClass{hasLoop: true}))
				}
			}
		}
		body := condLoad
		if st.Cond != nil {
			a.walkExpr(st.Cond, record)
			// A data-dependent trip count gates the body's stores the same
			// way a branch does: zero iterations preserve the old bytes.
			body = body || a.classify(st.Cond).hasLoad
		}
		if st.Post != nil {
			a.walkStmt(st.Post, record, true, body)
		}
		for _, b := range st.Body {
			a.walkStmt(b, record, true, body)
		}
	case *WhileStmt:
		a.walkExpr(st.Cond, record)
		body := condLoad || a.classify(st.Cond).hasLoad
		for _, b := range st.Body {
			a.walkStmt(b, record, true, body)
		}
	case *ExprStmt:
		a.walkExpr(st.X, record)
	case *ReturnStmt:
	}
}

// walkExpr records array reads and their patterns.
func (a *analyzer) walkExpr(e Expr, record bool) {
	switch x := e.(type) {
	case *IndexExpr:
		a.walkExpr(x.Idx, record)
		if record {
			a.reads[x.Base] = true
			a.recordPattern(x.Base, a.classify(x.Idx).pattern())
		}
	case *BinaryExpr:
		a.walkExpr(x.L, record)
		a.walkExpr(x.R, record)
	case *UnaryExpr:
		a.walkExpr(x.X, record)
	case *CastExpr:
		a.walkExpr(x.X, record)
	case *CondExpr:
		a.walkExpr(x.C, record)
		a.walkExpr(x.T, record)
		a.walkExpr(x.F, record)
	case *CallExpr:
		for _, arg := range x.Args {
			if ad, ok := arg.(*AddrExpr); ok {
				a.walkExpr(ad.X.Idx, record)
				if record && x.Name == "atomicAdd" {
					a.reads[ad.X.Base] = true
					a.writes[ad.X.Base] = true
					a.recordPattern(ad.X.Base, a.classify(ad.X.Idx).pattern())
				}
				continue
			}
			a.walkExpr(arg, record)
		}
	}
}

// classify computes the index class of an expression.
func (a *analyzer) classify(e Expr) idxClass {
	switch x := e.(type) {
	case *NumberExpr:
		return idxClass{}
	case *IdentExpr:
		return a.varClass[x.Name] // scalar params and unknowns: constant
	case *IndexExpr:
		return idxClass{hasLoad: true}
	case *MemberExpr:
		switch x.Base {
		case "threadIdx":
			return idxClass{hasTid: true, tidLinear: true}
		case "blockIdx":
			return idxClass{hasTid: true, tidLinear: true}
		default: // blockDim, gridDim: launch constants
			return idxClass{}
		}
	case *BinaryExpr:
		l, r := a.classify(x.L), a.classify(x.R)
		switch x.Op {
		case "+", "-":
			// The canonical global id blockIdx*blockDim + threadIdx
			// stays linear: scaled tid + linear tid is the dense cover.
			m := l.merge(r)
			if isBlockBase(x.L) || isBlockBase(x.R) {
				m.tidScaled = false
				m.tidLinear = true
			}
			return m
		case "*", "/", "%":
			m := l.merge(r)
			if isBlockBase(x) {
				// blockIdx * blockDim: the block-base half of the
				// canonical global id.
				return idxClass{hasTid: true, tidLinear: true}
			}
			if m.hasTid {
				m.tidScaled = true
				m.tidLinear = false
			}
			if m.hasLoop {
				m.loopScaled = true
			}
			return m
		default:
			return l.merge(r)
		}
	case *UnaryExpr:
		return a.classify(x.X)
	case *CastExpr:
		return a.classify(x.X)
	case *CondExpr:
		return a.classify(x.T).merge(a.classify(x.F))
	case *CallExpr:
		// Math builtins and __device__ helpers are pure functions of
		// their arguments: the result's class is the arguments' merge,
		// made nonlinear (a sqrt of the thread id no longer walks
		// sequentially).
		var m idxClass
		for _, arg := range x.Args {
			if _, ok := arg.(*AddrExpr); ok {
				continue
			}
			m = m.merge(a.classify(arg))
		}
		if m.hasTid {
			m.tidScaled = true
			m.tidLinear = false
		}
		return m
	}
	return idxClass{}
}

// isBlockBase reports whether e is the blockIdx*blockDim product (either
// order, any axis).
func isBlockBase(e Expr) bool {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != "*" {
		return false
	}
	lm, lok := b.L.(*MemberExpr)
	rm, rok := b.R.(*MemberExpr)
	if !lok || !rok {
		return false
	}
	return (lm.Base == "blockIdx" && rm.Base == "blockDim") ||
		(lm.Base == "blockDim" && rm.Base == "blockIdx")
}

// opsEstimator builds a per-thread operation-count estimate. Loops whose
// bound is a scalar parameter multiply by that parameter's runtime value;
// loops with constant bounds multiply by the constant; anything else uses
// a fixed factor. A kernel with no loop bounded by a scalar parameter has
// one estimate for every launch, worked out here once.
func opsEstimator(k *Kernel) func(args scalarArgs) float64 {
	est := opsWalker(k)
	var looked bool
	if ops := est(scalarArgs{looked: &looked}); !looked {
		return func(scalarArgs) float64 { return ops }
	}
	return est
}

// opsWalker is opsEstimator's walk over the kernel body, run per estimate.
// A call to a __device__ helper costs the walk of the helper's body with the
// same arguments (the call graph is acyclic by construction). The walk
// keeps no state between estimates, so one compiled kernel — shared
// process-wide through the compile cache — is priced from any number of
// goroutines at once, and an estimate allocates nothing.
func opsWalker(k *Kernel) func(args scalarArgs) float64 {
	const unknownLoopFactor = 8
	scalarParams := make(map[string]bool)
	for _, p := range k.Params {
		if !p.Pointer {
			scalarParams[p.Name] = true
		}
	}

	var countStmts func(stmts []Stmt, args scalarArgs) float64
	var countExpr func(e Expr, args scalarArgs) float64

	countExpr = func(e Expr, args scalarArgs) float64 {
		switch x := e.(type) {
		case *BinaryExpr:
			return 1 + countExpr(x.L, args) + countExpr(x.R, args)
		case *UnaryExpr:
			return 1 + countExpr(x.X, args)
		case *CastExpr:
			return countExpr(x.X, args)
		case *CondExpr:
			return 1 + countExpr(x.C, args) + countExpr(x.T, args) + countExpr(x.F, args)
		case *CallExpr:
			n := 4.0 // math builtins cost a few ops
			if f, ok := k.funcs[x.Name]; ok {
				n = countStmts(f.Body, args) + 1 // the helper's body plus call overhead
			}
			for _, a := range x.Args {
				if ad, ok := a.(*AddrExpr); ok {
					n += countExpr(ad.X.Idx, args)
					continue
				}
				n += countExpr(a, args)
			}
			return n
		case *IndexExpr:
			return 1 + countExpr(x.Idx, args)
		default:
			return 0
		}
	}

	loopTrips := func(f *ForStmt, args scalarArgs) float64 {
		cond, ok := f.Cond.(*BinaryExpr)
		if !ok {
			return unknownLoopFactor
		}
		bound := cond.R
		if cond.Op == ">" || cond.Op == ">=" {
			bound = cond.L
		}
		switch b := bound.(type) {
		case *NumberExpr:
			if b.Val > 0 {
				return b.Val
			}
		case *IdentExpr:
			if scalarParams[b.Name] {
				if v, ok := args.lookup(b.Name); ok && v > 0 {
					return v
				}
			}
		}
		return unknownLoopFactor
	}

	countStmts = func(stmts []Stmt, args scalarArgs) float64 {
		var n float64
		for _, s := range stmts {
			switch st := s.(type) {
			case *DeclStmt:
				if st.Init != nil {
					n += 1 + countExpr(st.Init, args)
				}
			case *AssignStmt:
				n += 1 + countExpr(st.Value, args)
				if ix, ok := st.Target.(*IndexExpr); ok {
					n += countExpr(ix.Idx, args)
				}
			case *IncStmt:
				n++
			case *IfStmt:
				n += countExpr(st.Cond, args)
				// Both branches may run across threads; average them.
				n += (countStmts(st.Then, args) + countStmts(st.Else, args)) / 2
			case *ForStmt:
				trips := loopTrips(st, args)
				body := countStmts(st.Body, args) + 2 // cond+post
				n += trips * body
			case *WhileStmt:
				n += unknownLoopFactor * (countStmts(st.Body, args) + 1)
			case *ExprStmt:
				n += countExpr(st.X, args)
			case *ReturnStmt:
				if st.Value != nil {
					n += countExpr(st.Value, args)
				}
			}
		}
		return n
	}

	return func(args scalarArgs) float64 {
		ops := countStmts(k.Body, args)
		if ops < 1 {
			ops = 1
		}
		return ops
	}
}
