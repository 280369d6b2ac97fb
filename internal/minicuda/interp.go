package minicuda

import (
	"errors"
	"fmt"
	"math"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// value is a runtime scalar. Arithmetic is performed in float64; isInt
// tracks C integer semantics for division, modulo and bit operations.
type value struct {
	f     float64
	isInt bool
}

func intVal(v int64) value     { return value{f: float64(v), isInt: true} }
func floatVal(v float64) value { return value{f: v} }

func (v value) truthy() bool { return v.f != 0 }
func (v value) int() int64   { return int64(v.f) }

// mathBuiltin is one callable math function: exactly one of fn1/fn2 is
// set, matching arity. Direct typed function values (rather than a
// []float64 thunk) let both engines call builtins without an argument
// slice allocation per call.
type mathBuiltin struct {
	arity int
	fn1   func(float64) float64
	fn2   func(float64, float64) float64
}

// mathBuiltins maps callable math functions to implementations. Both the
// float (suffix f) and double spellings are accepted.
var mathBuiltins = map[string]mathBuiltin{
	"sqrt":  {arity: 1, fn1: math.Sqrt},
	"exp":   {arity: 1, fn1: math.Exp},
	"log":   {arity: 1, fn1: math.Log},
	"fabs":  {arity: 1, fn1: math.Abs},
	"abs":   {arity: 1, fn1: math.Abs},
	"sin":   {arity: 1, fn1: math.Sin},
	"cos":   {arity: 1, fn1: math.Cos},
	"tanh":  {arity: 1, fn1: math.Tanh},
	"erfc":  {arity: 1, fn1: math.Erfc},
	"erf":   {arity: 1, fn1: math.Erf},
	"floor": {arity: 1, fn1: math.Floor},
	"ceil":  {arity: 1, fn1: math.Ceil},
	"pow":   {arity: 2, fn2: math.Pow},
	"fmin":  {arity: 2, fn2: math.Min},
	"fmax":  {arity: 2, fn2: math.Max},
	"min":   {arity: 2, fn2: math.Min},
	"max":   {arity: 2, fn2: math.Max},
}

// lookupMath resolves a math builtin, accepting the CUDA "f" suffix
// (sqrtf, expf, ...).
func lookupMath(name string) (mathBuiltin, bool) {
	if b, ok := mathBuiltins[name]; ok {
		return b, true
	}
	if n := len(name); n > 1 && name[n-1] == 'f' {
		if b, ok := mathBuiltins[name[:n-1]]; ok {
			return b, true
		}
	}
	return mathBuiltin{}, false
}

// maxThreadSteps bounds per-thread statement execution, converting
// accidental infinite loops into errors.
const maxThreadSteps = 5_000_000

// maxLaunchThreads caps a launch's total thread count at the 32-bit-style
// grid limit real CUDA enforces; it also keeps grid*block products away
// from int overflow on any platform.
const maxLaunchThreads = int64(1) << 31

// ErrLaunchTooLarge reports a launch whose grid×block thread count
// exceeds maxLaunchThreads. Matched with errors.Is.
var ErrLaunchTooLarge = errors.New("launch exceeds the thread-count limit")

// validateLaunch checks a launch configuration and its arguments against
// the kernel's parameters; shared by both engines. A pointer parameter
// needs a buffer of exactly its element kind — the compiled engine indexes
// that kind's typed slice directly.
func validateLaunch(k *Kernel, grid, block int, args []kernels.Arg) error {
	if grid < 1 || block < 1 {
		return fmt.Errorf("minicuda: %s: invalid launch configuration %dx%d", k.Name, grid, block)
	}
	if total := int64(grid) * int64(block); total > maxLaunchThreads {
		return fmt.Errorf("minicuda: %s: %dx%d launch is %d threads (limit %d): %w",
			k.Name, grid, block, total, maxLaunchThreads, ErrLaunchTooLarge)
	}
	if len(args) != len(k.Params) {
		return fmt.Errorf("minicuda: %s: got %d arguments, want %d", k.Name, len(args), len(k.Params))
	}
	for i, prm := range k.Params {
		buf := args[i].Buf
		switch {
		case prm.Pointer && buf == nil:
			return fmt.Errorf("minicuda: %s: parameter %s needs a device array", k.Name, prm.Name)
		case !prm.Pointer && buf != nil:
			return fmt.Errorf("minicuda: %s: parameter %s is a scalar", k.Name, prm.Name)
		case prm.Pointer && buf.Kind != prm.Kind:
			return fmt.Errorf("minicuda: %s: parameter %s needs a %v array, got %v", k.Name, prm.Name, prm.Kind, buf.Kind)
		}
	}
	return nil
}

// interp executes one kernel launch.
type interp struct {
	k *Kernel
	// paramIdx maps parameter names to positions.
	paramIdx map[string]int
	// args are the launch arguments, indexed like Params (a private copy:
	// scalar-parameter assignments are thread-local, as in CUDA, and must
	// not leak into the caller's slice).
	args []kernels.Arg
	// scalarInit snapshots the launch's scalar arguments so each thread
	// starts from them regardless of assignments by earlier threads.
	scalarInit []float64
	// locals maps local variable names to values (per thread).
	locals map[string]value
	// builtin thread coordinates.
	threadIdx, blockIdx, blockDim, gridDim [3]int
	steps                                  int
	maxSteps                               int
	// retVal carries a __device__ function's return value alongside
	// ctrlReturn; depth counts nested device-function frames.
	retVal value
	depth  int
}

// errReturn is an internal control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// runLaunch interprets the kernel over a 1-D grid of grid×block threads.
// maxSteps bounds per-thread statement execution (0 means the default).
func runLaunch(k *Kernel, grid, block int, args []kernels.Arg, maxSteps int) error {
	if err := validateLaunch(k, grid, block, args); err != nil {
		return err
	}
	paramIdx := make(map[string]int, len(k.Params))
	for i, prm := range k.Params {
		paramIdx[prm.Name] = i
	}
	if maxSteps <= 0 {
		maxSteps = maxThreadSteps
	}
	scalarInit := make([]float64, len(args))
	for i, a := range args {
		scalarInit[i] = a.Scalar
	}
	in := &interp{
		k:          k,
		paramIdx:   paramIdx,
		args:       append([]kernels.Arg(nil), args...),
		scalarInit: scalarInit,
		maxSteps:   maxSteps,
		blockDim:   [3]int{block, 1, 1},
		gridDim:    [3]int{grid, 1, 1},
	}
	for b := 0; b < grid; b++ {
		for t := 0; t < block; t++ {
			in.blockIdx = [3]int{b, 0, 0}
			in.threadIdx = [3]int{t, 0, 0}
			in.locals = make(map[string]value, 8)
			// The step budget and scalar parameters are per thread: a long
			// honest grid must not exhaust a launch-wide budget, and a
			// scalar assignment must not leak into the next thread.
			in.steps = 0
			for i := range in.args {
				in.args[i].Scalar = scalarInit[i]
			}
			if _, err := in.execStmts(k.Body); err != nil {
				return fmt.Errorf("minicuda: %s: %w", k.Name, err)
			}
		}
	}
	return nil
}

func (in *interp) step(pos Pos) error {
	in.steps++
	if in.steps > in.maxSteps {
		return errf(pos, "execution exceeded %d steps (infinite loop?)", in.maxSteps)
	}
	return nil
}

func (in *interp) execStmts(stmts []Stmt) (ctrl, error) {
	for _, s := range stmts {
		c, err := in.execStmt(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (in *interp) execStmt(s Stmt) (ctrl, error) {
	switch st := s.(type) {
	case *DeclStmt:
		if err := in.step(st.Pos); err != nil {
			return ctrlNone, err
		}
		v := value{isInt: st.Kind == memmodel.Int32 || st.Kind == memmodel.Int64}
		if st.Init != nil {
			iv, err := in.eval(st.Init)
			if err != nil {
				return ctrlNone, err
			}
			v = coerce(iv, st.Kind)
		}
		in.locals[st.Name] = v
		return ctrlNone, nil

	case *AssignStmt:
		if err := in.step(st.Pos); err != nil {
			return ctrlNone, err
		}
		rhs, err := in.eval(st.Value)
		if err != nil {
			return ctrlNone, err
		}
		if st.Op != "=" {
			cur, err := in.eval(st.Target)
			if err != nil {
				return ctrlNone, err
			}
			rhs, err = binop(st.Op[:1], cur, rhs, st.Pos)
			if err != nil {
				return ctrlNone, err
			}
		}
		return ctrlNone, in.store(st.Target, rhs)

	case *IncStmt:
		if err := in.step(st.Pos); err != nil {
			return ctrlNone, err
		}
		cur, err := in.eval(st.Target)
		if err != nil {
			return ctrlNone, err
		}
		d := 1.0
		if st.Decr {
			d = -1
		}
		return ctrlNone, in.store(st.Target, value{f: cur.f + d, isInt: cur.isInt})

	case *IfStmt:
		if err := in.step(st.Pos); err != nil {
			return ctrlNone, err
		}
		cond, err := in.eval(st.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond.truthy() {
			return in.execStmts(st.Then)
		}
		return in.execStmts(st.Else)

	case *ForStmt:
		if st.Init != nil {
			if c, err := in.execStmt(st.Init); err != nil || c != ctrlNone {
				return c, err
			}
		}
		for {
			if err := in.step(st.Pos); err != nil {
				return ctrlNone, err
			}
			cond, err := in.eval(st.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !cond.truthy() {
				return ctrlNone, nil
			}
			c, err := in.execStmts(st.Body)
			if err != nil || c == ctrlReturn {
				return c, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if st.Post != nil {
				if c, err := in.execStmt(st.Post); err != nil || c != ctrlNone {
					return c, err
				}
			}
		}

	case *WhileStmt:
		for {
			if err := in.step(st.Pos); err != nil {
				return ctrlNone, err
			}
			cond, err := in.eval(st.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !cond.truthy() {
				return ctrlNone, nil
			}
			c, err := in.execStmts(st.Body)
			if err != nil || c == ctrlReturn {
				return c, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
		}

	case *BreakStmt:
		return ctrlBreak, nil

	case *ContinueStmt:
		return ctrlContinue, nil

	case *ReturnStmt:
		if st.Value != nil {
			if in.depth == 0 {
				return ctrlNone, errf(st.Pos, "kernels return void")
			}
			v, err := in.eval(st.Value)
			if err != nil {
				return ctrlNone, err
			}
			in.retVal = v
		} else if in.depth > 0 {
			return ctrlNone, errf(st.Pos, "__device__ function must return a value")
		}
		return ctrlReturn, nil

	case *ExprStmt:
		if err := in.step(st.Pos); err != nil {
			return ctrlNone, err
		}
		_, err := in.eval(st.X)
		return ctrlNone, err
	}
	return ctrlNone, fmt.Errorf("minicuda: unknown statement %T", s)
}

// store writes to an identifier or array element.
func (in *interp) store(target Expr, v value) error {
	switch t := target.(type) {
	case *IdentExpr:
		if _, isLocal := in.locals[t.Name]; !isLocal {
			if i, ok := in.paramIdx[t.Name]; ok && in.depth == 0 {
				prm := in.k.Params[i]
				if prm.Pointer {
					return errf(t.Pos, "cannot assign to pointer parameter %s", t.Name)
				}
				in.args[i].Scalar = coerce(v, prm.Kind).f
				return nil
			}
		}
		cur, ok := in.locals[t.Name]
		if !ok {
			return errf(t.Pos, "assignment to undeclared variable %s", t.Name)
		}
		v.isInt = cur.isInt
		if cur.isInt {
			v.f = float64(int64(v.f))
		}
		in.locals[t.Name] = v
		return nil
	case *IndexExpr:
		buf, idx, err := in.element(t)
		if err != nil {
			return err
		}
		buf.Set(idx, v.f)
		return nil
	}
	return fmt.Errorf("minicuda: bad assignment target %T", target)
}

// element resolves an IndexExpr to its buffer and bounds-checked index.
func (in *interp) element(ix *IndexExpr) (*kernels.Buffer, int, error) {
	pi, ok := in.paramIdx[ix.Base]
	if !ok || !in.k.Params[pi].Pointer {
		return nil, 0, errf(ix.Pos, "%s is not a pointer parameter", ix.Base)
	}
	iv, err := in.eval(ix.Idx)
	if err != nil {
		return nil, 0, err
	}
	idx := int(iv.f)
	buf := in.args[pi].Buf
	if idx < 0 || idx >= buf.Len() {
		return nil, 0, errf(ix.Pos, "index %d out of range for %s (length %d)", idx, ix.Base, buf.Len())
	}
	return buf, idx, nil
}

func (in *interp) eval(e Expr) (value, error) {
	switch x := e.(type) {
	case *NumberExpr:
		return value{f: x.Val, isInt: x.IsInt}, nil

	case *IdentExpr:
		if v, ok := in.locals[x.Name]; ok {
			return v, nil
		}
		if i, ok := in.paramIdx[x.Name]; ok && in.depth == 0 {
			prm := in.k.Params[i]
			if prm.Pointer {
				return value{}, errf(x.Pos, "pointer parameter %s used as a scalar", x.Name)
			}
			return value{f: in.args[i].Scalar,
				isInt: prm.Kind == memmodel.Int32 || prm.Kind == memmodel.Int64}, nil
		}
		return value{}, errf(x.Pos, "undefined variable %s", x.Name)

	case *IndexExpr:
		buf, idx, err := in.element(x)
		if err != nil {
			return value{}, err
		}
		kind := buf.Kind
		return value{f: buf.At(idx), isInt: kind == memmodel.Int32 || kind == memmodel.Int64}, nil

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
			return intVal(int64(in.threadIdx[dim])), nil
		case "blockIdx":
			return intVal(int64(in.blockIdx[dim])), nil
		case "blockDim":
			return intVal(int64(in.blockDim[dim])), nil
		case "gridDim":
			return intVal(int64(in.gridDim[dim])), nil
		}
		return value{}, errf(x.Pos, "unknown builtin %s", x.Base)

	case *BinaryExpr:
		l, err := in.eval(x.L)
		if err != nil {
			return value{}, err
		}
		// Short-circuit logic.
		switch x.Op {
		case "&&":
			if !l.truthy() {
				return intVal(0), nil
			}
			r, err := in.eval(x.R)
			if err != nil {
				return value{}, err
			}
			return boolVal(r.truthy()), nil
		case "||":
			if l.truthy() {
				return intVal(1), nil
			}
			r, err := in.eval(x.R)
			if err != nil {
				return value{}, err
			}
			return boolVal(r.truthy()), nil
		}
		r, err := in.eval(x.R)
		if err != nil {
			return value{}, err
		}
		return binop(x.Op, l, r, x.Pos)

	case *UnaryExpr:
		v, err := in.eval(x.X)
		if err != nil {
			return value{}, err
		}
		switch x.Op {
		case "-":
			return value{f: -v.f, isInt: v.isInt}, nil
		case "!":
			return boolVal(!v.truthy()), nil
		case "~":
			return intVal(^v.int()), nil
		}
		return value{}, errf(x.Pos, "unknown unary operator %s", x.Op)

	case *CastExpr:
		v, err := in.eval(x.X)
		if err != nil {
			return value{}, err
		}
		return coerce(v, x.Kind), nil

	case *CondExpr:
		c, err := in.eval(x.C)
		if err != nil {
			return value{}, err
		}
		if c.truthy() {
			return in.eval(x.T)
		}
		return in.eval(x.F)

	case *CallExpr:
		return in.evalCall(x)

	case *AddrExpr:
		return value{}, errf(x.Pos, "& outside atomicAdd")
	}
	return value{}, fmt.Errorf("minicuda: unknown expression %T", e)
}

func (in *interp) evalCall(x *CallExpr) (value, error) {
	if f, ok := in.k.funcs[x.Name]; ok {
		if len(x.Args) != len(f.Params) {
			return value{}, errf(x.Pos, "%s takes %d arguments, got %d", f.Name, len(f.Params), len(x.Args))
		}
		args := make([]value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a)
			if err != nil {
				return value{}, err
			}
			args[i] = v
		}
		return in.callDevice(f, args, x.Pos)
	}
	if x.Name == "atomicAdd" {
		if len(x.Args) != 2 {
			return value{}, errf(x.Pos, "atomicAdd takes 2 arguments")
		}
		addr, ok := x.Args[0].(*AddrExpr)
		if !ok {
			return value{}, errf(x.Pos, "atomicAdd's first argument must be &array[index]")
		}
		buf, idx, err := in.element(addr.X)
		if err != nil {
			return value{}, err
		}
		v, err := in.eval(x.Args[1])
		if err != nil {
			return value{}, err
		}
		old := buf.At(idx)
		buf.Set(idx, old+v.f)
		return floatVal(old), nil
	}
	b, ok := lookupMath(x.Name)
	if !ok {
		return value{}, errf(x.Pos, "unknown function %s", x.Name)
	}
	if len(x.Args) != b.arity {
		return value{}, errf(x.Pos, "%s takes %d arguments, got %d", x.Name, b.arity, len(x.Args))
	}
	a0, err := in.eval(x.Args[0])
	if err != nil {
		return value{}, err
	}
	if b.arity == 1 {
		return floatVal(b.fn1(a0.f)), nil
	}
	a1, err := in.eval(x.Args[1])
	if err != nil {
		return value{}, err
	}
	return floatVal(b.fn2(a0.f, a1.f)), nil
}

func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// coerce converts a value to a declared kind.
func coerce(v value, kind memmodel.ElemKind) value {
	switch kind {
	case memmodel.Int32:
		return intVal(int64(int32(v.f)))
	case memmodel.Int64:
		return intVal(int64(v.f))
	case memmodel.Float32:
		return floatVal(float64(float32(v.f)))
	default:
		return floatVal(v.f)
	}
}

// binop applies a binary operator with C-like semantics: integer division
// and modulo when both operands are integers.
func binop(op string, l, r value, pos Pos) (value, error) {
	bothInt := l.isInt && r.isInt
	switch op {
	case "+":
		return value{f: l.f + r.f, isInt: bothInt}, nil
	case "-":
		return value{f: l.f - r.f, isInt: bothInt}, nil
	case "*":
		return value{f: l.f * r.f, isInt: bothInt}, nil
	case "/":
		if bothInt {
			if r.int() == 0 {
				return value{}, errf(pos, "integer division by zero")
			}
			return intVal(l.int() / r.int()), nil
		}
		return floatVal(l.f / r.f), nil
	case "%":
		if !bothInt {
			return value{}, errf(pos, "%% requires integer operands")
		}
		if r.int() == 0 {
			return value{}, errf(pos, "integer modulo by zero")
		}
		return intVal(l.int() % r.int()), nil
	case "<":
		return boolVal(l.f < r.f), nil
	case ">":
		return boolVal(l.f > r.f), nil
	case "<=":
		return boolVal(l.f <= r.f), nil
	case ">=":
		return boolVal(l.f >= r.f), nil
	case "==":
		return boolVal(l.f == r.f), nil
	case "!=":
		return boolVal(l.f != r.f), nil
	}
	return value{}, errf(pos, "unknown operator %s", op)
}

// callDevice executes a __device__ helper in its own variable frame.
func (in *interp) callDevice(f *DeviceFunc, args []value, pos Pos) (value, error) {
	saved := in.locals
	in.locals = make(map[string]value, len(f.Params)+4)
	for i, prm := range f.Params {
		in.locals[prm.Name] = coerce(args[i], prm.Kind)
	}
	in.depth++
	c, err := in.execStmts(f.Body)
	in.depth--
	in.locals = saved
	if err != nil {
		return value{}, err
	}
	if c != ctrlReturn {
		return value{}, errf(pos, "__device__ function %s ended without returning", f.Name)
	}
	ret := in.retVal
	in.retVal = value{}
	return coerce(ret, f.Ret), nil
}
