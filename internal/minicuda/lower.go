package minicuda

import (
	"fmt"
	"math"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// This file lowers a checked kernel AST into a slot-addressed program of
// Go closures: every local variable (and scalar parameter) is resolved to
// a dense register-file index at compile time, math builtins become direct
// function values, launch-constant subexpressions (threadIdx.y, blockDim.x
// products, numeric arithmetic) are folded, and the canonical global-id
// expression blockIdx.x*blockDim.x+threadIdx.x compiles to a single
// precomputed register read. The result executes the same dynamic
// semantics as the reference tree-walker in interp.go — statement-for-
// statement step accounting, identical error messages, identical
// evaluation order — but without per-access map lookups or AST dispatch.
//
// Lowering is deliberately partial: the dialect's dynamic-scoping corner
// cases (a kernel-body declaration shadowing a parameter, a read of a
// variable that is declared somewhere but not on every path to the read)
// cannot be expressed with one static slot per name, so the lowerer bails
// and the kernel Def falls back to the interpreter. Real kernels never hit
// these; the differential fuzz target keeps both engines honest.

// exprFn evaluates a lowered expression. Runtime errors are raised by
// panicking with a *Error; the launch driver recovers them.
type exprFn func(*env) value

// stmtFn executes a lowered statement and reports control flow.
type stmtFn func(*env) ctrl

// etype is what is statically known about an expression's int-ness.
type etype int

const (
	tDyn   etype = iota // depends on runtime values
	tInt                // always isInt
	tFloat              // never isInt
)

func kindType(k memmodel.ElemKind) etype {
	if k == memmodel.Int32 || k == memmodel.Int64 {
		return tInt
	}
	return tFloat
}

func kindIsInt(k memmodel.ElemKind) bool {
	return k == memmodel.Int32 || k == memmodel.Int64
}

// cexpr is a lowered expression with its static summary.
type cexpr struct {
	fn  exprFn
	typ etype
	// cv is non-nil when the expression is a compile-time constant (fn
	// still works and returns *cv).
	cv *value
	// ff, when set, evaluates the expression with side effects identical
	// to fn and returns fn(e).f without boxing a value. Stores, indexing,
	// conditions and float arithmetic only consume the f field, so this
	// rail carries most of a numeric kernel's inner loop.
	ff func(*env) float64
	// bf likewise returns fn(e).truthy().
	bf func(*env) bool
	// slot, when isSlot, marks the expression as a pure read of
	// e.regs[e.base+slot] (a local or scalar parameter). No expression
	// can mutate a register of the current frame — assignment is a
	// statement and __device__ calls get their own frame — so rail
	// constructors may fuse such operands into the parent closure
	// regardless of evaluation order.
	slot   int
	isSlot bool
}

// floatFn returns the cheapest evaluator of the expression's f field.
func (c cexpr) floatFn() func(*env) float64 {
	if c.ff != nil {
		return c.ff
	}
	fn := c.fn
	return func(e *env) float64 { return fn(e).f }
}

// boolFn returns the cheapest evaluator of the expression's truthiness.
func (c cexpr) boolFn() func(*env) bool {
	if c.bf != nil {
		return c.bf
	}
	if c.ff != nil {
		ff := c.ff
		return func(e *env) bool { return ff(e) != 0 }
	}
	fn := c.fn
	return func(e *env) bool { return fn(e).truthy() }
}

// wrapFloat boxes a float rail as the canonical fn (result is never int).
func wrapFloat(ff func(*env) float64) exprFn {
	return func(e *env) value { return value{f: ff(e)} }
}

// wrapInt boxes a float rail whose result is statically int-valued.
func wrapInt(ff func(*env) float64) exprFn {
	return func(e *env) value { return value{f: ff(e), isInt: true} }
}

func constExpr(v value) cexpr {
	t := tFloat
	if v.isInt {
		t = tInt
	}
	f, b := v.f, v.truthy()
	return cexpr{
		fn:  func(*env) value { return v },
		typ: t,
		cv:  &v,
		ff:  func(*env) float64 { return f },
		bf:  func(*env) bool { return b },
	}
}

// errExpr always raises err when evaluated — used for shapes the checker
// reports lazily at runtime (unknown names, arity mismatches), preserving
// the interpreter's behaviour of failing only if the expression executes.
func errExpr(err *Error) cexpr {
	return cexpr{fn: func(*env) value { panic(err) }}
}

// cfunc is a lowered __device__ helper.
type cfunc struct {
	name   string
	ret    memmodel.ElemKind
	nslots int
	// paramSlots maps argument position to frame slot. Duplicate
	// parameter names share one slot, so this is not always the
	// identity: the last argument written wins, as in the
	// interpreter's per-frame variable map.
	paramSlots []int
	body       []stmtFn
}

// program is a fully lowered kernel ready for (parallel) execution.
type program struct {
	k      *Kernel
	nslots int
	body   []stmtFn
	// scalarSlot[i] is the register slot of scalar parameter i, -1 for
	// pointer parameters; scalarInt mirrors the parameter kind.
	scalarSlot []int
	scalarInt  []bool
	// parallelSafe: block partitions may execute concurrently (every
	// pointer parameter is read-only, touched only at the thread's own
	// global id, or touched only through atomicAdd).
	parallelSafe bool
	// hasAtomic / atomicsCommute drive the launch-time decision of whether
	// parallel atomicAdd reordering can change the result: the adds
	// commute exactly when every one adds an int value into an int buffer
	// and discards the returned old value.
	hasAtomic      bool
	atomicsCommute bool
}

// bailErr aborts lowering; the Def falls back to the interpreter.
type bailErr struct{ reason string }

// lowerer holds per-module lowering state.
type lowerer struct {
	k    *Kernel
	fns  map[string]*cfunc
	prog *program
}

// lowerProgram compiles a kernel to a program, or reports why it must run
// on the reference interpreter.
func lowerProgram(k *Kernel) (p *program, err error) {
	defer func() {
		if r := recover(); r != nil {
			if b, ok := r.(bailErr); ok {
				p, err = nil, fmt.Errorf("minicuda: %s: not compilable: %s", k.Name, b.reason)
				return
			}
			panic(r)
		}
	}()
	lw := &lowerer{k: k, fns: make(map[string]*cfunc)}
	lw.prog = &program{k: k, atomicsCommute: true}

	pre := prepass(k.Body)
	for _, prm := range k.Params {
		if len(pre.declKinds[prm.Name]) > 0 {
			panic(bailErr{fmt.Sprintf("declaration shadows parameter %s", prm.Name)})
		}
	}

	sc := &scope{
		lw:       lw,
		kernel:   true,
		pre:      pre,
		slots:    make(map[string]int),
		declared: make(map[string]bool),
		typs:     pre.slotTypes(nil),
		definite: make(map[string]bool),
		paramIdx: make(map[string]int, len(k.Params)),
		consts:   make(map[string]value),
	}
	for name := range pre.declKinds {
		sc.declared[name] = true
	}
	lw.prog.scalarSlot = make([]int, len(k.Params))
	lw.prog.scalarInt = make([]bool, len(k.Params))
	for i, prm := range k.Params {
		sc.paramIdx[prm.Name] = i
		lw.prog.scalarSlot[i] = -1
		lw.prog.scalarInt[i] = kindIsInt(prm.Kind)
		if !prm.Pointer {
			lw.prog.scalarSlot[i] = sc.slotFor(prm.Name)
		}
	}

	lw.prog.body = sc.lowerStmts(k.Body)
	lw.prog.nslots = sc.nslots
	lw.prog.parallelSafe = analyzeParallel(k, pre.gidAliases())
	return lw.prog, nil
}

// ---- pre-pass ----

// preInfo summarizes one function body: every declaration (by name and
// kind) and every store to a plain identifier, anywhere in the body.
type preInfo struct {
	declKinds map[string][]memmodel.ElemKind
	stores    map[string]int
	// gidDecl marks names whose (sole) declaration initializer is the
	// canonical global-id expression.
	gidDecl map[string]bool
}

func prepass(stmts []Stmt) *preInfo {
	pre := &preInfo{
		declKinds: make(map[string][]memmodel.ElemKind),
		stores:    make(map[string]int),
		gidDecl:   make(map[string]bool),
	}
	pre.walkStmts(stmts)
	return pre
}

func (pre *preInfo) walkStmts(stmts []Stmt) {
	for _, s := range stmts {
		pre.walkStmt(s)
	}
}

func (pre *preInfo) walkStmt(s Stmt) {
	switch st := s.(type) {
	case *DeclStmt:
		pre.declKinds[st.Name] = append(pre.declKinds[st.Name], st.Kind)
		if st.Init != nil && isGidExpr(st.Init) {
			pre.gidDecl[st.Name] = true
		}
	case *AssignStmt:
		if id, ok := st.Target.(*IdentExpr); ok {
			pre.stores[id.Name]++
		}
	case *IncStmt:
		if id, ok := st.Target.(*IdentExpr); ok {
			pre.stores[id.Name]++
		}
	case *IfStmt:
		pre.walkStmts(st.Then)
		pre.walkStmts(st.Else)
	case *ForStmt:
		if st.Init != nil {
			pre.walkStmt(st.Init)
		}
		if st.Post != nil {
			pre.walkStmt(st.Post)
		}
		pre.walkStmts(st.Body)
	case *WhileStmt:
		pre.walkStmts(st.Body)
	}
}

// slotTypes derives each name's static int-ness: assignments preserve the
// declared int-ness (store semantics), so a slot's type is static exactly
// when every declaration of the name agrees. params seeds device-function
// parameters into the map.
func (pre *preInfo) slotTypes(params []Param) map[string]etype {
	typs := make(map[string]etype)
	merge := func(name string, t etype) {
		if cur, ok := typs[name]; ok && cur != t {
			typs[name] = tDyn
			return
		}
		typs[name] = t
	}
	for _, p := range params {
		merge(p.Name, kindType(p.Kind))
	}
	for name, kinds := range pre.declKinds {
		for _, k := range kinds {
			merge(name, kindType(k))
		}
	}
	return typs
}

// gidAliases returns the locals that provably hold the thread's global id:
// declared exactly once with the canonical initializer, never reassigned,
// and of a kind that represents every id up to the launch limit exactly
// (float32 collapses distinct ids above 2^24, so it does not qualify).
func (pre *preInfo) gidAliases() map[string]bool {
	out := make(map[string]bool)
	for name := range pre.gidDecl {
		if len(pre.declKinds[name]) == 1 && pre.stores[name] == 0 &&
			pre.declKinds[name][0] != memmodel.Float32 {
			out[name] = true
		}
	}
	return out
}

// isGidExpr reports whether e is blockIdx.x*blockDim.x + threadIdx.x
// (factors and addends in either order).
func isGidExpr(e Expr) bool {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != "+" {
		return false
	}
	return (isBlockBaseX(b.L) && isMemberX(b.R, "threadIdx")) ||
		(isBlockBaseX(b.R) && isMemberX(b.L, "threadIdx"))
}

func isMemberX(e Expr, base string) bool {
	m, ok := e.(*MemberExpr)
	return ok && m.Base == base && m.Field == "x"
}

func isBlockBaseX(e Expr) bool {
	b, ok := e.(*BinaryExpr)
	if !ok || b.Op != "*" {
		return false
	}
	return (isMemberX(b.L, "blockIdx") && isMemberX(b.R, "blockDim")) ||
		(isMemberX(b.L, "blockDim") && isMemberX(b.R, "blockIdx"))
}

// ---- scope ----

// scope is the per-function lowering context. definite tracks which names
// are declared on every path to the current program point; reading a name
// that is declared somewhere but not definitely is a dynamic-scoping
// corner the slot model cannot express, so it bails.
type scope struct {
	lw       *lowerer
	kernel   bool
	pre      *preInfo
	slots    map[string]int
	nslots   int
	declared map[string]bool
	typs     map[string]etype
	definite map[string]bool
	paramIdx map[string]int // kernel scope only
	// consts holds locals propagated as compile-time constants: declared
	// exactly once, never reassigned, with a constant initializer. Their
	// declarations still execute (one budget step) but store nothing, and
	// every dominated read folds.
	consts map[string]value
	// discarded is the call an expression statement is lowering: its
	// value, if it is an atomicAdd, is never read.
	discarded *CallExpr
}

func (sc *scope) slotFor(name string) int {
	if s, ok := sc.slots[name]; ok {
		return s
	}
	s := sc.nslots
	sc.slots[name] = s
	sc.nslots++
	return s
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := make(map[string]bool, len(a))
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// ---- statements ----

func (sc *scope) lowerStmts(stmts []Stmt) []stmtFn {
	fns := make([]stmtFn, len(stmts))
	for i, s := range stmts {
		fns[i] = sc.lowerStmt(s)
	}
	return fns
}

func runStmts(e *env, fns []stmtFn) ctrl {
	for _, fn := range fns {
		if c := fn(e); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
}

// local resolves x to the register of a definitely declared, non-constant
// local, with the local's static type.
func (sc *scope) local(x Expr) (slot int, typ etype, ok bool) {
	if id, isID := x.(*IdentExpr); isID && sc.definite[id.Name] {
		if _, isConst := sc.consts[id.Name]; !isConst {
			return sc.slotFor(id.Name), sc.typs[id.Name], true
		}
	}
	return 0, tDyn, false
}

// counted describes for (...; v < bound; v++) over an int local v: the
// induction register, and the bound's register (bslot >= 0) or constant.
type counted struct {
	iv, bslot int
	limit     float64
	incPos    Pos
}

// lowerForCond lowers a for loop's condition. A counted loop returns a nil
// condition and its shape; anything else returns the generic condition.
// The comparison's operands are lowered exactly once either way.
func (sc *scope) lowerForCond(st *ForStmt) (func(*env) bool, counted) {
	c, ok := st.Cond.(*BinaryExpr)
	if !ok || c.Op != "<" {
		return sc.lowerExpr(st.Cond).boolFn(), counted{}
	}
	l, r := sc.lowerExpr(c.L), sc.lowerExpr(c.R)
	inc, isInc := st.Post.(*IncStmt)
	id, isID := c.L.(*IdentExpr)
	if isInc && isID && !inc.Decr && isIdent(inc.Target, id.Name) && l.isSlot && (r.isSlot || r.cv != nil) {
		if slot, typ, ok := sc.local(c.L); ok && typ == tInt {
			cl := counted{iv: slot, bslot: -1, incPos: inc.Pos}
			if r.isSlot {
				cl.bslot = r.slot
			} else {
				cl.limit = r.cv.f
			}
			return nil, cl
		}
	}
	return lowerBinop(c.Op, l, r, c.Pos).boolFn(), counted{}
}

// isIdent reports whether x is the identifier name.
func isIdent(x Expr, name string) bool {
	id, ok := x.(*IdentExpr)
	return ok && id.Name == name
}

// arith applies one of + - * / to two floats.
func arith(op byte, a, b float64) float64 {
	switch op {
	case '+':
		return a + b
	case '-':
		return a - b
	case '*':
		return a * b
	}
	return a / b
}

// compound compiles the read-modify half of a compound assignment: the
// value, then the target's current value (an indexed target's index is
// evaluated again by the store), then the operator — the interpreter's
// order. +, - and * give the same f field whatever the operands' int-ness
// and / is a float division once either side is statically float, so
// those take one direct op; int / and % go through binop.
func compound(op string, t, r cexpr, pos Pos) func(*env) float64 {
	if op == "+" || op == "-" || op == "*" || op == "/" && (t.typ == tFloat || r.typ == tFloat) {
		o, tf, rf := op[0], t.floatFn(), r.floatFn()
		return func(e *env) float64 { v := rf(e); return arith(o, tf(e), v) }
	}
	tfn, rfn := t.fn, r.fn
	return func(e *env) float64 {
		v := rfn(e)
		res, err := binop(op, tfn(e), v, pos)
		if err != nil {
			panic(err)
		}
		return res.f
	}
}

func (sc *scope) lowerStmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *DeclStmt:
		pos, kind := st.Pos, st.Kind
		if st.Init != nil {
			init := sc.lowerExpr(st.Init)
			// Constant propagation: a local declared exactly once, never
			// reassigned, with a constant initializer holds the same value
			// at every dominated read. The declaration still costs its
			// budget step; the name never needs a slot. Names already
			// definite here (a device-function body redeclaring its own
			// parameter) are excluded — reads textually before the
			// declaration could observe the slot on a later loop
			// iteration.
			if init.cv != nil && !sc.definite[st.Name] &&
				len(sc.pre.declKinds[st.Name]) == 1 && sc.pre.stores[st.Name] == 0 {
				sc.consts[st.Name] = coerce(*init.cv, kind)
				sc.definite[st.Name] = true
				return func(e *env) ctrl {
					e.step(pos)
					return ctrlNone
				}
			}
			slot := sc.slotFor(st.Name)
			sc.definite[st.Name] = true
			vf := init.floatFn()
			// coerce reads only the f field, so each kind gets a direct
			// rail-fed store.
			switch kind {
			case memmodel.Int32:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: float64(int32(vf(e))), isInt: true}
					return ctrlNone
				}
			case memmodel.Int64:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: float64(int64(vf(e))), isInt: true}
					return ctrlNone
				}
			case memmodel.Float32:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: float64(float32(vf(e)))}
					return ctrlNone
				}
			default:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: vf(e)}
					return ctrlNone
				}
			}
		}
		slot := sc.slotFor(st.Name)
		sc.definite[st.Name] = true
		zero := value{isInt: kindIsInt(kind)}
		return func(e *env) ctrl {
			e.step(pos)
			e.regs[e.base+slot] = zero
			return ctrlNone
		}

	case *AssignStmt:
		pos := st.Pos
		var valFn func(*env) float64
		if st.Op == "=" {
			valFn = sc.lowerExpr(st.Value).floatFn()
		} else {
			op := st.Op[:1]
			r := sc.lowerExpr(st.Value)
			// op= on a float local: one op on the register in place,
			// addressed after the value runs (a __device__ call in it may
			// grow the register file). Float % errors; it stays generic.
			if slot, typ, ok := sc.local(st.Target); ok && typ == tFloat && op != "%" {
				o, vf := op[0], r.floatFn()
				return func(e *env) ctrl {
					e.step(pos)
					v := vf(e)
					reg := &e.regs[e.base+slot]
					*reg = value{f: arith(o, reg.f, v)}
					return ctrlNone
				}
			}
			valFn = compound(op, sc.lowerExpr(st.Target), r, pos)
		}
		// Fused fast path: a store to a statically typed local is one
		// closure. Semantics match the generic path exactly — value first,
		// then the store.
		if slot, typ, ok := sc.local(st.Target); ok {
			switch typ {
			case tInt:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: float64(int64(valFn(e))), isInt: true}
					return ctrlNone
				}
			case tFloat:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot] = value{f: valFn(e)}
					return ctrlNone
				}
			}
		}
		store := sc.lowerStore(st.Target)
		return func(e *env) ctrl {
			e.step(pos)
			store(e, valFn(e))
			return ctrlNone
		}

	case *IncStmt:
		pos := st.Pos
		d := 1.0
		if st.Decr {
			d = -1
		}
		if slot, typ, ok := sc.local(st.Target); ok {
			switch typ {
			case tInt:
				return func(e *env) ctrl {
					e.step(pos)
					r := &e.regs[e.base+slot]
					r.f = float64(int64(r.f + d))
					return ctrlNone
				}
			case tFloat:
				return func(e *env) ctrl {
					e.step(pos)
					e.regs[e.base+slot].f += d
					return ctrlNone
				}
			}
		}
		tfn := sc.lowerExpr(st.Target).floatFn()
		store := sc.lowerStore(st.Target)
		return func(e *env) ctrl {
			e.step(pos)
			store(e, tfn(e)+d)
			return ctrlNone
		}

	case *IfStmt:
		pos := st.Pos
		cfn := sc.lowerExpr(st.Cond).boolFn()
		base := sc.definite
		sc.definite = copySet(base)
		thenFns := sc.lowerStmts(st.Then)
		thenDef := sc.definite
		sc.definite = copySet(base)
		elseFns := sc.lowerStmts(st.Else)
		sc.definite = intersect(thenDef, sc.definite)
		return func(e *env) ctrl {
			e.step(pos)
			if cfn(e) {
				return runStmts(e, thenFns)
			}
			return runStmts(e, elseFns)
		}

	case *ForStmt:
		pos := st.Pos
		var initFn stmtFn
		if st.Init != nil {
			initFn = sc.lowerStmt(st.Init)
		}
		// The condition and post-statement can run with only a prefix of
		// the body executed (continue, zero iterations), so they — and
		// everything after the loop — see only the definite set from
		// before the body.
		condSet := copySet(sc.definite)
		cfn, cl := sc.lowerForCond(st)
		sc.definite = copySet(condSet)
		bodyFns := sc.lowerStmts(st.Body)
		var postFn stmtFn
		if st.Post != nil && cfn != nil {
			sc.definite = copySet(condSet)
			postFn = sc.lowerStmt(st.Post)
		}
		sc.definite = condSet
		// A counted loop (cfn == nil) inlines its compare and increment
		// but charges the same steps and re-reads both registers every
		// iteration, so a body that writes the induction variable or the
		// bound behaves exactly as on the generic path.
		iv, bslot, limit, incPos := cl.iv, cl.bslot, cl.limit, cl.incPos
		return func(e *env) ctrl {
			if initFn != nil {
				if c := initFn(e); c != ctrlNone {
					return c
				}
			}
			for {
				e.step(pos)
				if cfn != nil {
					if !cfn(e) {
						return ctrlNone
					}
				} else {
					bound := limit
					if bslot >= 0 {
						bound = e.regs[e.base+bslot].f
					}
					if !(e.regs[e.base+iv].f < bound) {
						return ctrlNone
					}
				}
				c := runStmts(e, bodyFns)
				if c == ctrlReturn {
					return ctrlReturn
				}
				if c == ctrlBreak {
					return ctrlNone
				}
				if cfn == nil {
					e.step(incPos)
					r := &e.regs[e.base+iv]
					r.f = float64(int64(r.f + 1))
				} else if postFn != nil {
					if c := postFn(e); c != ctrlNone {
						return c
					}
				}
			}
		}

	case *WhileStmt:
		pos := st.Pos
		condSet := copySet(sc.definite)
		cfn := sc.lowerExpr(st.Cond).boolFn()
		sc.definite = copySet(condSet)
		bodyFns := sc.lowerStmts(st.Body)
		sc.definite = condSet
		return func(e *env) ctrl {
			for {
				e.step(pos)
				if !cfn(e) {
					return ctrlNone
				}
				c := runStmts(e, bodyFns)
				if c == ctrlReturn {
					return ctrlReturn
				}
				if c == ctrlBreak {
					return ctrlNone
				}
			}
		}

	case *BreakStmt:
		return func(*env) ctrl { return ctrlBreak }

	case *ContinueStmt:
		return func(*env) ctrl { return ctrlContinue }

	case *ReturnStmt:
		pos := st.Pos
		if sc.kernel {
			if st.Value != nil {
				err := errf(pos, "kernels return void")
				return func(*env) ctrl { panic(err) }
			}
			return func(*env) ctrl { return ctrlReturn }
		}
		if st.Value == nil {
			err := errf(pos, "__device__ function must return a value")
			return func(*env) ctrl { panic(err) }
		}
		vfn := sc.lowerExpr(st.Value).fn
		return func(e *env) ctrl {
			e.retVal = vfn(e)
			return ctrlReturn
		}

	case *ExprStmt:
		pos := st.Pos
		sc.discarded, _ = st.X.(*CallExpr)
		fn := sc.lowerExpr(st.X).fn
		return func(e *env) ctrl {
			e.step(pos)
			fn(e)
			return ctrlNone
		}
	}
	panic(bailErr{fmt.Sprintf("unknown statement %T", s)})
}

// lowerStore compiles the write half of an assignment. The returned
// function receives the already-evaluated value, preserving the
// interpreter's evaluate-value-first ordering (including for targets that
// turn out to be invalid at runtime). Every store sink — local slots,
// scalar-parameter coercion, buffer Set — consumes only the value's f
// field, so stores ride the unboxed float rail.
func (sc *scope) lowerStore(target Expr) func(*env, float64) {
	switch t := target.(type) {
	case *IdentExpr:
		name, pos := t.Name, t.Pos
		if sc.definite[name] {
			if _, isConst := sc.consts[name]; isConst {
				// Unreachable by construction (const-propagated locals
				// have zero stores); bail defensively rather than
				// miscompile.
				panic(bailErr{fmt.Sprintf("store to constant local %s", name)})
			}
			// Statically typed locals never get here: assignments and
			// increments store to them inline.
			slot := sc.slotFor(name)
			return func(e *env, f float64) {
				cur := &e.regs[e.base+slot]
				if cur.isInt {
					cur.f = float64(int64(f))
				} else {
					cur.f = f
				}
			}
		}
		if sc.declared[name] {
			panic(bailErr{fmt.Sprintf("store to %s before its declaration dominates", name)})
		}
		if sc.kernel {
			if i, ok := sc.paramIdx[name]; ok {
				prm := sc.lw.k.Params[i]
				if prm.Pointer {
					err := errf(pos, "cannot assign to pointer parameter %s", name)
					return func(*env, float64) { panic(err) }
				}
				slot, kind := sc.lw.prog.scalarSlot[i], prm.Kind
				return func(e *env, f float64) {
					e.regs[e.base+slot] = coerce(value{f: f}, kind)
				}
			}
		}
		err := errf(pos, "assignment to undeclared variable %s", name)
		return func(*env, float64) { panic(err) }

	case *IndexExpr:
		el, err := sc.element(t)
		if err != nil {
			return func(*env, float64) { panic(err) }
		}
		return el.store()
	}
	panic(bailErr{fmt.Sprintf("bad assignment target %T", target)})
}

// ---- expressions ----

// index is a compiled element index. A plain register read — the i of
// x[i] — is inlined into the access closure; any other index runs ff.
type index struct {
	ff   func(*env) float64
	slot int
}

func (ix index) at(e *env) int {
	if ix.ff == nil {
		return int(e.regs[e.base+ix.slot].f)
	}
	return int(ix.ff(e))
}

// indexOf compiles an index expression. Beyond the plain register read,
// the affine shapes of array indexing — a±b, a±c and a*b+d over registers
// a, b, d and a constant c — compile to one closure. Their operands are
// pure, so fusing cannot reorder side effects; + and * compute the same f
// field whatever the operands' int-ness. The product is rounded by an
// explicit conversion before the add: Go may otherwise fuse a*b+d into an
// FMA, which the separate rail closures never do. Every subexpression is
// lowered exactly once, matched shape or not.
func (sc *scope) indexOf(x Expr) index {
	var c cexpr
	if b, ok := x.(*BinaryExpr); ok && (b.Op == "+" || b.Op == "-") && !isGidExpr(b) {
		var l, ml, mr cexpr
		m, mul := b.L.(*BinaryExpr)
		if mul = mul && m.Op == "*" && b.Op == "+"; mul {
			ml, mr = sc.lowerExpr(m.L), sc.lowerExpr(m.R)
			l = lowerBinop("*", ml, mr, m.Pos)
		} else {
			l = sc.lowerExpr(b.L)
		}
		r := sc.lowerExpr(b.R)
		if ff := fuseAffine(b.Op, l, r, ml, mr, mul); ff != nil {
			return index{ff: ff}
		}
		c = lowerBinop(b.Op, l, r, b.Pos)
	} else {
		c = sc.lowerExpr(x)
	}
	if c.isSlot {
		return index{slot: c.slot}
	}
	return index{ff: c.floatFn()}
}

// fuseAffine returns the one-closure form of l op r (l = ml*mr when mul),
// or nil when an operand is not a register read or constant of the shape.
// a-b runs as a+(-1*b) and a-c as a+(-c): IEEE subtraction is exactly the
// addition of the negation.
func fuseAffine(op string, l, r, ml, mr cexpr, mul bool) func(*env) float64 {
	sgn := 1.0
	if op == "-" {
		sgn = -1
	}
	switch {
	case mul:
		if ml.isSlot && mr.isSlot && r.isSlot {
			a, b, d := ml.slot, mr.slot, r.slot
			return func(e *env) float64 {
				return float64(e.regs[e.base+a].f*e.regs[e.base+b].f) + e.regs[e.base+d].f
			}
		}
	case l.isSlot && r.isSlot:
		a, b := l.slot, r.slot
		return func(e *env) float64 { return e.regs[e.base+a].f + float64(sgn*e.regs[e.base+b].f) }
	case l.isSlot && r.cv != nil:
		a, k := l.slot, sgn*r.cv.f
		return func(e *env) float64 { return e.regs[e.base+a].f + k }
	}
	return nil
}

// element is a compiled access to one pointer parameter: its position,
// its element kind — static, because validateLaunch refuses a buffer of
// any other kind — and the compiled index.
type element struct {
	pi   int
	kind memmodel.ElemKind
	ix   index
	pos  Pos
	base string
}

// element resolves base[idx] to a pointer parameter and compiles the
// index, or returns the error every access to a non-pointer base raises.
func (sc *scope) element(x *IndexExpr) (element, *Error) {
	pi, ok := -1, false
	if sc.kernel {
		pi, ok = sc.paramIdx[x.Base]
	}
	if !ok || !sc.lw.k.Params[pi].Pointer {
		return element{}, errf(x.Pos, "%s is not a pointer parameter", x.Base)
	}
	return element{pi: pi, kind: sc.lw.k.Params[pi].Kind, ix: sc.indexOf(x.Idx), pos: x.Pos, base: x.Base}, nil
}

// check panics unless idx indexes an n-element view. The error is built
// out of line so check inlines into the accessors.
func (el *element) check(idx, n int) {
	if uint(idx) >= uint(n) {
		panic(el.oob(idx, n))
	}
}

func (el *element) oob(idx, n int) *Error {
	return errf(el.pos, "index %d out of range for %s (length %d)", idx, el.base, n)
}

// load compiles a bounds-checked read of the element as float64.
func (el element) load() func(*env) float64 {
	pi, ix := el.pi, el.ix
	switch el.kind {
	case memmodel.Float32:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].f32
			el.check(idx, len(s))
			return float64(s[idx])
		}
	case memmodel.Float64:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].f64
			el.check(idx, len(s))
			return s[idx]
		}
	case memmodel.Int32:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].i32
			el.check(idx, len(s))
			return float64(s[idx])
		}
	}
	return func(e *env) float64 {
		idx, s := ix.at(e), e.views[pi].i64
		el.check(idx, len(s))
		return float64(s[idx])
	}
}

// store compiles a bounds-checked write of an already evaluated value,
// converted as Buffer.Set converts it (floats through the canonical-NaN
// rounding).
func (el element) store() func(*env, float64) {
	pi, ix := el.pi, el.ix
	switch el.kind {
	case memmodel.Float32:
		return func(e *env, f float64) {
			idx, s := ix.at(e), e.views[pi].f32
			el.check(idx, len(s))
			s[idx] = kernels.Canon32(f)
		}
	case memmodel.Float64:
		return func(e *env, f float64) {
			idx, s := ix.at(e), e.views[pi].f64
			el.check(idx, len(s))
			s[idx] = kernels.Canon64(f)
		}
	case memmodel.Int32:
		return func(e *env, f float64) {
			idx, s := ix.at(e), e.views[pi].i32
			el.check(idx, len(s))
			s[idx] = int32(f)
		}
	}
	return func(e *env, f float64) {
		idx, s := ix.at(e), e.views[pi].i64
		el.check(idx, len(s))
		s[idx] = int64(f)
	}
}

// atomicAdd compiles atomicAdd(&element, value): the index and its bounds
// check, then the value, then the read — the interpreter's order. A
// serial launch keeps the interpreter's plain read-modify-write; a
// partitioned one takes the CAS loop. Both round the sum as a store does.
func (el element) atomicAdd(vf func(*env) float64) func(*env) float64 {
	pi, ix := el.pi, el.ix
	switch el.kind {
	case memmodel.Float32:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].f32
			el.check(idx, len(s))
			v := vf(e)
			if e.par {
				return kernels.AtomicAddFloat32(&s[idx], v)
			}
			old := float64(s[idx])
			s[idx] = kernels.Canon32(old + v)
			return old
		}
	case memmodel.Float64:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].f64
			el.check(idx, len(s))
			v := vf(e)
			if e.par {
				return kernels.AtomicAddFloat64(&s[idx], v)
			}
			old := s[idx]
			s[idx] = kernels.Canon64(old + v)
			return old
		}
	case memmodel.Int32:
		return func(e *env) float64 {
			idx, s := ix.at(e), e.views[pi].i32
			el.check(idx, len(s))
			v := vf(e)
			if e.par {
				return kernels.AtomicAddInt32(&s[idx], v)
			}
			old := float64(s[idx])
			s[idx] = int32(old + v)
			return old
		}
	}
	return func(e *env) float64 {
		idx, s := ix.at(e), e.views[pi].i64
		el.check(idx, len(s))
		v := vf(e)
		if e.par {
			return kernels.AtomicAddInt64(&s[idx], v)
		}
		old := float64(s[idx])
		s[idx] = int64(old + v)
		return old
	}
}

func (sc *scope) lowerExpr(e Expr) cexpr {
	switch x := e.(type) {
	case *NumberExpr:
		return constExpr(value{f: x.Val, isInt: x.IsInt})

	case *IdentExpr:
		name := x.Name
		if sc.definite[name] {
			if cv, ok := sc.consts[name]; ok {
				return constExpr(cv)
			}
			slot := sc.slotFor(name)
			return cexpr{
				fn:   func(e *env) value { return e.regs[e.base+slot] },
				typ:  sc.typs[name],
				ff:   func(e *env) float64 { return e.regs[e.base+slot].f },
				slot: slot, isSlot: true,
			}
		}
		if sc.declared[name] {
			panic(bailErr{fmt.Sprintf("read of %s before its declaration dominates", name)})
		}
		if sc.kernel {
			if i, ok := sc.paramIdx[name]; ok {
				prm := sc.lw.k.Params[i]
				if prm.Pointer {
					return errExpr(errf(x.Pos, "pointer parameter %s used as a scalar", name))
				}
				slot := sc.lw.prog.scalarSlot[i]
				return cexpr{
					fn:   func(e *env) value { return e.regs[e.base+slot] },
					typ:  kindType(prm.Kind),
					ff:   func(e *env) float64 { return e.regs[e.base+slot].f },
					slot: slot, isSlot: true,
				}
			}
		}
		return errExpr(errf(x.Pos, "undefined variable %s", name))

	case *IndexExpr:
		el, err := sc.element(x)
		if err != nil {
			return errExpr(err)
		}
		return railRes(kindType(el.kind), el.load())

	case *MemberExpr:
		dim := 0
		switch x.Field {
		case "y":
			dim = 1
		case "z":
			dim = 2
		}
		switch x.Base {
		case "threadIdx":
			if dim > 0 {
				return constExpr(intVal(0))
			}
			return cexpr{fn: func(e *env) value { return value{f: float64(e.tid), isInt: true} }, typ: tInt,
				ff: func(e *env) float64 { return float64(e.tid) }}
		case "blockIdx":
			if dim > 0 {
				return constExpr(intVal(0))
			}
			return cexpr{fn: func(e *env) value { return value{f: float64(e.bid), isInt: true} }, typ: tInt,
				ff: func(e *env) float64 { return float64(e.bid) }}
		case "blockDim":
			if dim > 0 {
				return constExpr(intVal(1))
			}
			return cexpr{fn: func(e *env) value { return value{f: float64(e.bdim), isInt: true} }, typ: tInt,
				ff: func(e *env) float64 { return float64(e.bdim) }}
		case "gridDim":
			if dim > 0 {
				return constExpr(intVal(1))
			}
			return cexpr{fn: func(e *env) value { return value{f: float64(e.gdim), isInt: true} }, typ: tInt,
				ff: func(e *env) float64 { return float64(e.gdim) }}
		}
		return errExpr(errf(x.Pos, "unknown builtin %s", x.Base))

	case *BinaryExpr:
		if x.Op == "&&" || x.Op == "||" {
			return sc.lowerLogic(x)
		}
		if isGidExpr(x) {
			return cexpr{fn: func(e *env) value { return value{f: e.gidf, isInt: true} }, typ: tInt,
				ff: func(e *env) float64 { return e.gidf }}
		}
		l := sc.lowerExpr(x.L)
		r := sc.lowerExpr(x.R)
		return lowerBinop(x.Op, l, r, x.Pos)

	case *UnaryExpr:
		v := sc.lowerExpr(x.X)
		switch x.Op {
		case "-":
			if v.cv != nil {
				return constExpr(value{f: -v.cv.f, isInt: v.cv.isInt})
			}
			switch v.typ {
			case tFloat:
				vf := v.floatFn()
				neg := func(e *env) float64 { return -vf(e) }
				return cexpr{fn: wrapFloat(neg), typ: tFloat, ff: neg}
			case tInt:
				vf := v.floatFn()
				neg := func(e *env) float64 { return -vf(e) }
				return cexpr{fn: wrapInt(neg), typ: tInt, ff: neg}
			}
			vfn := v.fn
			return cexpr{fn: func(e *env) value {
				a := vfn(e)
				return value{f: -a.f, isInt: a.isInt}
			}, typ: tDyn}
		case "!":
			if v.cv != nil {
				return constExpr(boolVal(!v.cv.truthy()))
			}
			vb := v.boolFn()
			bf := func(e *env) bool { return !vb(e) }
			return cexpr{fn: func(e *env) value { return boolVal(bf(e)) }, typ: tInt, bf: bf}
		case "~":
			if v.cv != nil {
				return constExpr(intVal(^v.cv.int()))
			}
			vf := v.floatFn()
			ff := func(e *env) float64 { return float64(^int64(vf(e))) }
			return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
		}
		vfn := v.fn
		err := errf(x.Pos, "unknown unary operator %s", x.Op)
		return cexpr{fn: func(e *env) value { vfn(e); panic(err) }}

	case *CastExpr:
		v := sc.lowerExpr(x.X)
		if v.cv != nil {
			return constExpr(coerce(*v.cv, x.Kind))
		}
		vf := v.floatFn()
		// coerce reads only the f field; each target kind gets a direct
		// rail-to-rail conversion.
		switch x.Kind {
		case memmodel.Int32:
			ff := func(e *env) float64 { return float64(int32(vf(e))) }
			return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
		case memmodel.Int64:
			ff := func(e *env) float64 { return float64(int64(vf(e))) }
			return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
		case memmodel.Float32:
			ff := func(e *env) float64 { return float64(float32(vf(e))) }
			return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
		default:
			return cexpr{fn: wrapFloat(vf), typ: tFloat, ff: vf}
		}

	case *CondExpr:
		c := sc.lowerExpr(x.C)
		if c.cv != nil {
			// The interpreter evaluates only the chosen branch; folding the
			// condition means the other branch is never even lowered.
			if c.cv.truthy() {
				return sc.lowerExpr(x.T)
			}
			return sc.lowerExpr(x.F)
		}
		tt := sc.lowerExpr(x.T)
		ft := sc.lowerExpr(x.F)
		typ := tDyn
		if tt.typ == ft.typ {
			typ = tt.typ
		}
		cb := c.boolFn()
		if typ == tFloat || typ == tInt {
			tf, ffn := tt.floatFn(), ft.floatFn()
			ff := func(e *env) float64 {
				if cb(e) {
					return tf(e)
				}
				return ffn(e)
			}
			if typ == tInt {
				return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
			}
			return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
		}
		tfn, ffn := tt.fn, ft.fn
		return cexpr{fn: func(e *env) value {
			if cb(e) {
				return tfn(e)
			}
			return ffn(e)
		}, typ: typ}

	case *CallExpr:
		return sc.lowerCall(x)

	case *AddrExpr:
		return errExpr(errf(x.Pos, "& outside atomicAdd"))
	}
	panic(bailErr{fmt.Sprintf("unknown expression %T", e)})
}

// lowerLogic compiles && and || with short-circuit evaluation. A run of
// the same operator (a && b && c ...) becomes one operand list walked by a
// single loop, not a closure per nesting level. A constant operand that
// cannot decide the result is dropped; one that decides it ends the chain
// — the operands after it never run, so they are not even lowered.
func (sc *scope) lowerLogic(x *BinaryExpr) cexpr {
	and := x.Op == "&&"
	var chain []Expr // right to left
	e := Expr(x)
	for b, ok := x, true; ok && b.Op == x.Op; b, ok = e.(*BinaryExpr) {
		chain = append(chain, b.R)
		e = b.L
	}
	chain = append(chain, e)
	// tail is the result once every operand ran without deciding it.
	var ops []func(*env) bool
	tail := and
	for i := len(chain) - 1; i >= 0; i-- {
		c := sc.lowerExpr(chain[i])
		if c.cv == nil {
			ops = append(ops, c.boolFn())
		} else if c.cv.truthy() != and {
			tail = !and
			break
		}
	}
	var bf func(*env) bool
	switch {
	case len(ops) == 0:
		return constExpr(boolVal(tail))
	case len(ops) == 1 && tail == and:
		bf = ops[0]
	case and:
		bf = func(e *env) bool {
			for _, op := range ops {
				if !op(e) {
					return false
				}
			}
			return tail
		}
	default:
		bf = func(e *env) bool {
			for _, op := range ops {
				if op(e) {
					return true
				}
			}
			return tail
		}
	}
	return cmpRes(bf)
}

func arithType(a, b etype) etype {
	switch {
	case a == tInt && b == tInt:
		return tInt
	case a == tFloat || b == tFloat:
		return tFloat
	default:
		return tDyn
	}
}

// lowerBinop compiles an arithmetic or comparison operator. The operator
// is known statically, so every case dispatches directly instead of going
// through the interpreter's string switch; only int-ness may remain a
// runtime property of the operand values.
func lowerBinop(op string, l, r cexpr, pos Pos) cexpr {
	if l.cv != nil && r.cv != nil {
		if v, err := binop(op, *l.cv, *r.cv, pos); err == nil {
			return constExpr(v)
		}
		// Constant expressions that error (1/0, 1.5 % 2) keep erroring at
		// run time, exactly when the expression is reached.
		lv, rv := *l.cv, *r.cv
		return cexpr{fn: func(*env) value {
			v, err := binop(op, lv, rv, pos)
			if err != nil {
				panic(err)
			}
			return v
		}}
	}
	at := arithType(l.typ, r.typ)
	switch op {
	case "+":
		if at != tDyn {
			return railRes(at, railAdd(l, r))
		}
		lf, rf := l.fn, r.fn
		return cexpr{fn: func(e *env) value {
			a, b := lf(e), rf(e)
			return value{f: a.f + b.f, isInt: a.isInt && b.isInt}
		}}
	case "-":
		if at != tDyn {
			return railRes(at, railSub(l, r))
		}
		lf, rf := l.fn, r.fn
		return cexpr{fn: func(e *env) value {
			a, b := lf(e), rf(e)
			return value{f: a.f - b.f, isInt: a.isInt && b.isInt}
		}}
	case "*":
		if at != tDyn {
			return railRes(at, railMul(l, r))
		}
		lf, rf := l.fn, r.fn
		return cexpr{fn: func(e *env) value {
			a, b := lf(e), rf(e)
			return value{f: a.f * b.f, isInt: a.isInt && b.isInt}
		}}
	case "/":
		if l.typ == tInt && r.typ == tInt {
			la, ra := l.floatFn(), r.floatFn()
			var ff func(*env) float64
			if r.cv != nil && r.cv.int() != 0 {
				c := r.cv.int()
				ff = func(e *env) float64 { return float64(int64(la(e)) / c) }
			} else {
				ff = func(e *env) float64 {
					a := int64(la(e))
					b := int64(ra(e))
					if b == 0 {
						panic(errf(pos, "integer division by zero"))
					}
					return float64(a / b)
				}
			}
			return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
		}
		if l.typ == tFloat || r.typ == tFloat {
			return railRes(tFloat, railDiv(l, r))
		}
		lf, rf := l.fn, r.fn
		return cexpr{fn: func(e *env) value {
			a, b := lf(e), rf(e)
			if a.isInt && b.isInt {
				if b.int() == 0 {
					panic(errf(pos, "integer division by zero"))
				}
				return intVal(a.int() / b.int())
			}
			return floatVal(a.f / b.f)
		}}
	case "%":
		if l.typ == tInt && r.typ == tInt {
			la, ra := l.floatFn(), r.floatFn()
			ff := func(e *env) float64 {
				a := int64(la(e))
				b := int64(ra(e))
				if b == 0 {
					panic(errf(pos, "integer modulo by zero"))
				}
				return float64(a % b)
			}
			return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
		}
		lf, rf := l.fn, r.fn
		return cexpr{fn: func(e *env) value {
			a, b := lf(e), rf(e)
			v, err := binop("%", a, b, pos)
			if err != nil {
				panic(err)
			}
			return v
		}, typ: tInt}
	case "<":
		return cmpRes(railLT(l, r))
	case ">":
		return cmpRes(railGT(l, r))
	case "<=":
		return cmpRes(railLE(l, r))
	case ">=":
		return cmpRes(railGE(l, r))
	case "==":
		return cmpRes(railEQ(l, r))
	case "!=":
		return cmpRes(railNE(l, r))
	}
	lf, rf := l.fn, r.fn
	err := errf(pos, "unknown operator %s", op)
	return cexpr{fn: func(e *env) value { lf(e); rf(e); panic(err) }}
}

// railRes boxes a float-rail evaluator as a full cexpr. resT is tInt (both
// operands statically int, result exact in float64 semantics) or tFloat
// (at least one operand statically float).
func railRes(resT etype, ff func(*env) float64) cexpr {
	if resT == tInt {
		return cexpr{fn: wrapInt(ff), typ: tInt, ff: ff}
	}
	return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
}

func cmpRes(bf func(*env) bool) cexpr {
	return cexpr{fn: func(e *env) value { return boolVal(bf(e)) }, typ: tInt, bf: bf}
}

// The rail op constructors below are monomorphic per operator — the
// operator is baked into the closure body rather than passed as a function
// value, so each node costs exactly its operand evaluations plus one
// machine op. A constant operand is captured, not called, and a slot-read
// operand (isSlot) is fused to a direct register access — both are pure,
// so neither fusion can reorder side effects.

func railAdd(l, r cexpr) func(*env) float64 {
	if l.cv != nil {
		c := l.cv.f
		if r.isSlot {
			s := r.slot
			return func(e *env) float64 { return c + e.regs[e.base+s].f }
		}
		rf := r.floatFn()
		return func(e *env) float64 { return c + rf(e) }
	}
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) float64 { return e.regs[e.base+s].f + c }
		}
		lf := l.floatFn()
		return func(e *env) float64 { return lf(e) + c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) float64 { return e.regs[e.base+a].f + e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) float64 { return e.regs[e.base+a].f + rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) float64 { return lf(e) + e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) float64 { return lf(e) + rf(e) }
}

func railSub(l, r cexpr) func(*env) float64 {
	if l.cv != nil {
		c := l.cv.f
		if r.isSlot {
			s := r.slot
			return func(e *env) float64 { return c - e.regs[e.base+s].f }
		}
		rf := r.floatFn()
		return func(e *env) float64 { return c - rf(e) }
	}
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) float64 { return e.regs[e.base+s].f - c }
		}
		lf := l.floatFn()
		return func(e *env) float64 { return lf(e) - c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) float64 { return e.regs[e.base+a].f - e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) float64 { return e.regs[e.base+a].f - rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) float64 { return lf(e) - e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) float64 { return lf(e) - rf(e) }
}

func railMul(l, r cexpr) func(*env) float64 {
	if l.cv != nil {
		c := l.cv.f
		if r.isSlot {
			s := r.slot
			return func(e *env) float64 { return c * e.regs[e.base+s].f }
		}
		rf := r.floatFn()
		return func(e *env) float64 { return c * rf(e) }
	}
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) float64 { return e.regs[e.base+s].f * c }
		}
		lf := l.floatFn()
		return func(e *env) float64 { return lf(e) * c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) float64 { return e.regs[e.base+a].f * e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) float64 { return e.regs[e.base+a].f * rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) float64 { return lf(e) * e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) float64 { return lf(e) * rf(e) }
}

func railDiv(l, r cexpr) func(*env) float64 {
	if l.cv != nil {
		c := l.cv.f
		if r.isSlot {
			s := r.slot
			return func(e *env) float64 { return c / e.regs[e.base+s].f }
		}
		rf := r.floatFn()
		return func(e *env) float64 { return c / rf(e) }
	}
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) float64 { return e.regs[e.base+s].f / c }
		}
		lf := l.floatFn()
		return func(e *env) float64 { return lf(e) / c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) float64 { return e.regs[e.base+a].f / e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) float64 { return e.regs[e.base+a].f / rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) float64 { return lf(e) / e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) float64 { return lf(e) / rf(e) }
}

// The comparison constructors evaluate the left operand first, exactly
// like the interpreter — a flipped-operand encoding of > as < would
// reorder side effects. A constant left operand (0 < x) is rare in
// kernels and takes the general path.
func railLT(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f < c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) < c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f < e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f < rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) < e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) < rf(e) }
}

func railLE(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f <= c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) <= c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f <= e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f <= rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) <= e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) <= rf(e) }
}

func railGT(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f > c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) > c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f > e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f > rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) > e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) > rf(e) }
}

func railGE(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f >= c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) >= c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f >= e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f >= rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) >= e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) >= rf(e) }
}

func railEQ(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f == c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) == c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f == e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f == rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) == e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) == rf(e) }
}

func railNE(l, r cexpr) func(*env) bool {
	if r.cv != nil {
		c := r.cv.f
		if l.isSlot {
			s := l.slot
			return func(e *env) bool { return e.regs[e.base+s].f != c }
		}
		lf := l.floatFn()
		return func(e *env) bool { return lf(e) != c }
	}
	if l.isSlot && r.isSlot {
		a, b := l.slot, r.slot
		return func(e *env) bool { return e.regs[e.base+a].f != e.regs[e.base+b].f }
	}
	if l.isSlot {
		a, rf := l.slot, r.floatFn()
		return func(e *env) bool { return e.regs[e.base+a].f != rf(e) }
	}
	if r.isSlot {
		lf, b := l.floatFn(), r.slot
		return func(e *env) bool { return lf(e) != e.regs[e.base+b].f }
	}
	lf, rf := l.floatFn(), r.floatFn()
	return func(e *env) bool { return lf(e) != rf(e) }
}

// ---- calls ----

func (sc *scope) lowerCall(x *CallExpr) cexpr {
	if f, ok := sc.lw.k.funcs[x.Name]; ok {
		return sc.lowerDeviceCall(x, f)
	}
	if x.Name == "atomicAdd" {
		return sc.lowerAtomicAdd(x)
	}
	b, ok := lookupMath(x.Name)
	if !ok {
		return errExpr(errf(x.Pos, "unknown function %s", x.Name))
	}
	if len(x.Args) != b.arity {
		return errExpr(errf(x.Pos, "%s takes %d arguments, got %d", x.Name, b.arity, len(x.Args)))
	}
	a0 := sc.lowerExpr(x.Args[0])
	if b.arity == 1 {
		fn1 := b.fn1
		// Math builtins are pure functions of their f fields: constant
		// arguments fold the whole call at compile time (expf(-r*T) in an
		// option-pricing kernel never reaches the inner loop).
		if a0.cv != nil {
			return constExpr(floatVal(fn1(a0.cv.f)))
		}
		a0f := a0.floatFn()
		ff := railMath1(x.Name, fn1, a0f)
		return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
	}
	a1 := sc.lowerExpr(x.Args[1])
	fn2 := b.fn2
	if a0.cv != nil && a1.cv != nil {
		return constExpr(floatVal(fn2(a0.cv.f, a1.cv.f)))
	}
	a0f, a1f := a0.floatFn(), a1.floatFn()
	ff := func(e *env) float64 {
		v0 := a0f(e)
		return fn2(v0, a1f(e))
	}
	return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
}

// railMath1 compiles an arity-1 math call. The hot builtins get direct
// call sites (math.Sqrt and math.Abs are compiler intrinsics when called
// directly; the rest at least skip the indirect fn1 load) — the fallback
// through the table value is the same function, so results are
// bit-identical either way.
func railMath1(name string, fn1 func(float64) float64, a0f func(*env) float64) func(*env) float64 {
	if n := len(name); n > 1 && name[n-1] == 'f' {
		if _, ok := mathBuiltins[name[:n-1]]; ok {
			name = name[:n-1]
		}
	}
	switch name {
	case "sqrt":
		return func(e *env) float64 { return math.Sqrt(a0f(e)) }
	case "exp":
		return func(e *env) float64 { return math.Exp(a0f(e)) }
	case "log":
		return func(e *env) float64 { return math.Log(a0f(e)) }
	case "erfc":
		return func(e *env) float64 { return math.Erfc(a0f(e)) }
	case "fabs", "abs":
		return func(e *env) float64 { return math.Abs(a0f(e)) }
	}
	return func(e *env) float64 { return fn1(a0f(e)) }
}

func (sc *scope) lowerDeviceCall(x *CallExpr, f *DeviceFunc) cexpr {
	if len(x.Args) != len(f.Params) {
		return errExpr(errf(x.Pos, "%s takes %d arguments, got %d", f.Name, len(f.Params), len(x.Args)))
	}
	cf := sc.lw.deviceFunc(f)
	argFns := make([]exprFn, len(x.Args))
	argKinds := make([]memmodel.ElemKind, len(x.Args))
	for i, a := range x.Args {
		argFns[i] = sc.lowerExpr(a).fn
		argKinds[i] = f.Params[i].Kind
	}
	pos, name, ret := x.Pos, f.Name, f.Ret
	return cexpr{fn: func(e *env) value {
		// Reserve the callee frame first, then evaluate arguments in the
		// caller's frame, writing results directly into the reservation.
		// A nested call inside an argument appends after the reservation
		// and truncates back, so already-stored arguments survive.
		newBase := len(e.regs)
		if cap(e.regs) >= newBase+cf.nslots {
			e.regs = e.regs[:newBase+cf.nslots]
		} else {
			e.regs = append(e.regs, make([]value, cf.nslots)...)
		}
		for i, afn := range argFns {
			e.regs[newBase+cf.paramSlots[i]] = coerce(afn(e), argKinds[i])
		}
		saved := e.base
		e.base = newBase
		c := runStmts(e, cf.body)
		e.base = saved
		e.regs = e.regs[:newBase]
		if c != ctrlReturn {
			panic(errf(pos, "__device__ function %s ended without returning", name))
		}
		rv := e.retVal
		e.retVal = value{}
		return coerce(rv, ret)
	}, typ: kindType(ret)}
}

// deviceFunc lowers a __device__ helper once per module (memoized). The
// parser rejects recursion, so on-demand lowering terminates.
func (lw *lowerer) deviceFunc(f *DeviceFunc) *cfunc {
	if cf, ok := lw.fns[f.Name]; ok {
		return cf
	}
	cf := &cfunc{name: f.Name, ret: f.Ret}
	pre := prepass(f.Body)
	sc := &scope{
		lw:       lw,
		pre:      pre,
		slots:    make(map[string]int),
		declared: make(map[string]bool),
		typs:     pre.slotTypes(f.Params),
		definite: make(map[string]bool),
		consts:   make(map[string]value),
	}
	// Parameters are ordinary locals of the helper's frame (slots 0..n-1),
	// definite from entry; a body declaration of the same name reuses the
	// slot, exactly like the interpreter's flat per-frame variable map.
	for _, prm := range f.Params {
		cf.paramSlots = append(cf.paramSlots, sc.slotFor(prm.Name))
		sc.declared[prm.Name] = true
		sc.definite[prm.Name] = true
	}
	for name := range pre.declKinds {
		sc.declared[name] = true
	}
	cf.body = sc.lowerStmts(f.Body)
	cf.nslots = sc.nslots
	lw.fns[f.Name] = cf
	return cf
}

func (sc *scope) lowerAtomicAdd(x *CallExpr) cexpr {
	if len(x.Args) != 2 {
		return errExpr(errf(x.Pos, "atomicAdd takes 2 arguments"))
	}
	addr, ok := x.Args[0].(*AddrExpr)
	if !ok {
		return errExpr(errf(x.Pos, "atomicAdd's first argument must be &array[index]"))
	}
	el, err := sc.element(addr.X)
	if err != nil {
		return errExpr(err)
	}
	val := sc.lowerExpr(x.Args[1])

	prog := sc.lw.prog
	prog.hasAtomic = true
	// Float sums round per add, and fractional adds into int buffers
	// truncate per add; integer adds commute, but the old value each add
	// returns depends on the interleaving once anything reads it.
	if val.typ != tInt || !kindIsInt(el.kind) || x != sc.discarded {
		prog.atomicsCommute = false
	}
	ff := el.atomicAdd(val.floatFn())
	return cexpr{fn: wrapFloat(ff), typ: tFloat, ff: ff}
}

// ---- parallel-safety analysis ----

// paramAccess accumulates how one pointer parameter is touched.
type paramAccess struct {
	plain       bool // any non-atomic read or write
	plainWrite  bool
	plainAllGid bool // every plain access indexes the thread's global id
	atomic      bool
}

// analyzeParallel decides whether block partitions of the grid may run
// concurrently: every pointer parameter must be read-only, touched only at
// the thread's own global id (each element then belongs to exactly one
// thread), or touched exclusively through atomicAdd (the CAS loop makes
// concurrent updates safe; ordering is handled separately at launch).
func analyzeParallel(k *Kernel, gidAlias map[string]bool) bool {
	acc := make(map[string]*paramAccess)
	get := func(base string) *paramAccess {
		a, ok := acc[base]
		if !ok {
			a = &paramAccess{plainAllGid: true}
			acc[base] = a
		}
		return a
	}
	isGidIdx := func(e Expr) bool {
		if isGidExpr(e) {
			return true
		}
		id, ok := e.(*IdentExpr)
		return ok && gidAlias[id.Name]
	}
	plain := func(ix *IndexExpr, write bool) {
		a := get(ix.Base)
		a.plain = true
		a.plainWrite = a.plainWrite || write
		if !isGidIdx(ix.Idx) {
			a.plainAllGid = false
		}
	}

	var walkExpr func(e Expr)
	var walkStmts func(stmts []Stmt)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *IndexExpr:
			plain(x, false)
			walkExpr(x.Idx)
		case *BinaryExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *UnaryExpr:
			walkExpr(x.X)
		case *CastExpr:
			walkExpr(x.X)
		case *CondExpr:
			walkExpr(x.C)
			walkExpr(x.T)
			walkExpr(x.F)
		case *CallExpr:
			for _, arg := range x.Args {
				if ad, ok := arg.(*AddrExpr); ok {
					if x.Name == "atomicAdd" {
						get(ad.X.Base).atomic = true
					}
					walkExpr(ad.X.Idx)
					continue
				}
				walkExpr(arg)
			}
		}
	}
	var walk func(s Stmt)
	walk = func(s Stmt) {
		switch st := s.(type) {
		case *DeclStmt:
			if st.Init != nil {
				walkExpr(st.Init)
			}
		case *AssignStmt:
			walkExpr(st.Value)
			if ix, ok := st.Target.(*IndexExpr); ok {
				plain(ix, true)
				if st.Op != "=" {
					plain(ix, false)
				}
				walkExpr(ix.Idx)
			}
		case *IncStmt:
			if ix, ok := st.Target.(*IndexExpr); ok {
				plain(ix, true)
				plain(ix, false)
				walkExpr(ix.Idx)
			}
		case *IfStmt:
			walkExpr(st.Cond)
			walkStmts(st.Then)
			walkStmts(st.Else)
		case *ForStmt:
			if st.Init != nil {
				walk(st.Init)
			}
			walkExpr(st.Cond)
			if st.Post != nil {
				walk(st.Post)
			}
			walkStmts(st.Body)
		case *WhileStmt:
			walkExpr(st.Cond)
			walkStmts(st.Body)
		case *ReturnStmt:
			if st.Value != nil {
				walkExpr(st.Value)
			}
		case *ExprStmt:
			walkExpr(st.X)
		}
	}
	walkStmts = func(stmts []Stmt) {
		for _, s := range stmts {
			walk(s)
		}
	}
	walkStmts(k.Body)

	for _, a := range acc {
		written := a.plainWrite || a.atomic
		if !written {
			continue
		}
		if a.atomic && !a.plain {
			continue
		}
		if !a.atomic && a.plainAllGid {
			continue
		}
		return false
	}
	return true
}
