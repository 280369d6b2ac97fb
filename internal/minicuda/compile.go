package minicuda

import (
	"fmt"

	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// Engine selects which execution engine a compiled Def uses.
type Engine int

const (
	// EngineAuto lowers the kernel to the slot-compiled program and falls
	// back to the reference interpreter for the (rare) kernels the lowerer
	// cannot express. The default.
	EngineAuto Engine = iota
	// EngineCompiled requires the slot-compiled program; compilation fails
	// if the kernel cannot be lowered.
	EngineCompiled
	// EngineInterp forces the reference tree-walking interpreter.
	EngineInterp
)

// EngineOpts tunes kernel execution. The zero value is the default
// configuration: auto engine, GOMAXPROCS workers for parallel-safe
// kernels, strict (serializing) float atomics, default step budget.
type EngineOpts struct {
	Engine Engine
	// Workers partitions the grid's blocks: 0 means GOMAXPROCS, 1 forces
	// serial execution. Kernels the safety analysis cannot prove
	// race-free always run serial regardless.
	Workers int
	// RelaxedAtomics allows parallel execution of kernels whose atomicAdd
	// accumulation order affects the result (float sums); the outcome is
	// then hardware-like: correct up to floating-point reassociation.
	RelaxedAtomics bool
	// MaxThreadSteps overrides the per-thread statement budget (0 uses
	// the default).
	MaxThreadSteps int
}

// Compile parses a kernel source string and returns the kernels.Def for
// the (single) kernel it contains, optionally checked against an NFI
// signature string ("pointer float, const pointer float, sint32"). An
// empty signature accepts the parameter list as written — paper Listing 1
// passes both the source and the signature to buildkernel.
//
// Results are cached by (source, signature): repeated buildkernel calls
// return the already compiled Def without any front-end work.
func Compile(src, signature string) (*kernels.Def, error) {
	return cachedCompile(src, signature)
}

// CompileOpts compiles with explicit engine options, bypassing the cache
// (cached Defs always use the default options).
func CompileOpts(src, signature string, opts EngineOpts) (*kernels.Def, error) {
	return compileUncached(src, signature, opts)
}

// RaceAnalysis reports the engine's static verdicts for the (single)
// kernel in src. parallelSafe is the race analysis: every written buffer
// is touched only at the thread's own global id (or through atomicAdd),
// so block partitions may execute concurrently. orderSensitive reports
// an atomicAdd accumulation whose interleaving changes the result (a
// non-integer value or buffer, or a returned old value that is read),
// which also forces serial execution unless RelaxedAtomics is set. A
// kernel failing either check still executes
// correctly — it runs on the deterministic serial path, never
// miscompiled. Workload tests use this probe to pin which path each
// kernel takes.
func RaceAnalysis(src string) (parallelSafe, orderSensitive bool, err error) {
	ks, err := Parse(src)
	if err != nil {
		return false, false, err
	}
	if len(ks) != 1 {
		return false, false, fmt.Errorf("minicuda: source contains %d kernels; RaceAnalysis takes one", len(ks))
	}
	p, err := lowerProgram(ks[0])
	if err != nil {
		return false, false, err
	}
	return p.parallelSafe, p.orderSensitive(), nil
}

func compileUncached(src, signature string, opts EngineOpts) (*kernels.Def, error) {
	frontendRuns.Add(1)
	ks, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(ks) != 1 {
		return nil, fmt.Errorf("minicuda: source contains %d kernels; name one with CompileNamed", len(ks))
	}
	return buildDef(ks[0], signature, opts)
}

// CompileNamed compiles one kernel from a source module that may define
// several.
func CompileNamed(src, name, signature string) (*kernels.Def, error) {
	frontendRuns.Add(1)
	ks, err := Parse(src)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k.Name == name {
			return buildDef(k, signature, EngineOpts{})
		}
	}
	return nil, fmt.Errorf("minicuda: kernel %q not found in source", name)
}

// CompileAll compiles every kernel in a source module.
func CompileAll(src string) ([]*kernels.Def, error) {
	frontendRuns.Add(1)
	ks, err := Parse(src)
	if err != nil {
		return nil, err
	}
	defs := make([]*kernels.Def, len(ks))
	for i, k := range ks {
		d, err := buildDef(k, "", EngineOpts{})
		if err != nil {
			return nil, err
		}
		defs[i] = d
	}
	return defs, nil
}

// buildDef assembles the kernels.Def from the parsed kernel, its static
// analysis, and — engine permitting — its lowered program.
func buildDef(k *Kernel, signature string, opts EngineOpts) (*kernels.Def, error) {
	sig := signatureOf(k)
	if signature != "" {
		declared, err := kernels.ParseSignature(signature)
		if err != nil {
			return nil, err
		}
		if err := matchSignatures(k, declared); err != nil {
			return nil, err
		}
		sig = declared
	}

	an := analyze(k)
	kcopy := k // capture

	var prog *program
	if opts.Engine != EngineInterp {
		p, perr := lowerProgram(k)
		if perr != nil {
			if opts.Engine == EngineCompiled {
				return nil, perr
			}
			// EngineAuto: the reference interpreter handles the
			// dynamic-scoping corner the lowerer bailed on.
		} else {
			prog = p
		}
	}

	def := &kernels.Def{
		Name: k.Name,
		Sig:  sig,
		CostOfLaunch: func(grid, block int, meta []kernels.ArgMeta) kernels.Cost {
			threads := int64(grid) * int64(block)
			if threads < 1 {
				threads = 1
			}
			return kernels.Cost{
				Elements:      threads,
				OpsPerElement: an.ops(scalarArgs{params: kcopy.Params, meta: meta}),
			}
		},
		AccessOf: func(meta []kernels.ArgMeta) []memmodel.Access {
			return an.access
		},
		RunLaunch: func(grid, block int, args []kernels.Arg) error {
			if prog != nil {
				return prog.launch(grid, block, args, opts)
			}
			return runLaunch(kcopy, grid, block, args, opts.MaxThreadSteps)
		},
	}
	return def, nil
}

// signatureOf derives the NFI signature from the parameter list.
func signatureOf(k *Kernel) kernels.Signature {
	var sig kernels.Signature
	for _, p := range k.Params {
		sig.Params = append(sig.Params, kernels.Param{
			Name:    p.Name,
			Kind:    p.Kind,
			Pointer: p.Pointer,
			Const:   p.Const,
		})
	}
	return sig
}

// matchSignatures verifies a declared NFI signature against the kernel's
// parameter list.
func matchSignatures(k *Kernel, declared kernels.Signature) error {
	if len(declared.Params) != len(k.Params) {
		return fmt.Errorf("minicuda: %s has %d parameters, signature declares %d",
			k.Name, len(k.Params), len(declared.Params))
	}
	for i, dp := range declared.Params {
		kp := k.Params[i]
		if dp.Pointer != kp.Pointer {
			return fmt.Errorf("minicuda: %s parameter %d pointer-ness mismatch", k.Name, i)
		}
		if dp.Pointer && dp.Kind != kp.Kind {
			return fmt.Errorf("minicuda: %s parameter %d kind mismatch: source %v, signature %v",
				k.Name, i, kp.Kind, dp.Kind)
		}
	}
	return nil
}
