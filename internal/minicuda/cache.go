package minicuda

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"grout/internal/kernels"
)

// The compiled-kernel cache makes repeated buildkernel calls (the paper's
// port-by-one-line loop re-issues the same source every run) skip the
// whole front end: lex, parse, check and lowering run once per distinct
// (source, signature) pair and the resulting Def — including its lowered
// program — is shared. Defs are stateless per launch, so one cached Def
// serves concurrent launches.

// CacheKey returns the compiled-kernel cache key for a buildkernel
// request: hex SHA-256 over the source and the declared signature.
// Registry-level caches (grcuda runtime, controller, transport worker) use
// the same key so a repeated buildkernel resolves to the already
// registered kernel without re-entering the compiler.
func CacheKey(src, signature string) string {
	h := sha256.New()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(signature))
	return hex.EncodeToString(h.Sum(nil))
}

// maxCachedDefs bounds the process-wide cache; fuzzing and adversarial
// callers generate unbounded distinct sources. Evicting everything on
// overflow is fine: steady-state workloads compile a handful of kernels.
const maxCachedDefs = 4096

var (
	defCacheMu sync.Mutex
	defCache   = make(map[string]*kernels.Def)

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	frontendRuns atomic.Uint64
)

// CompileStats reports cache hits, misses, and how many times the compiler
// front end (lex/parse/check/lower) actually ran. Tests assert the hit
// path performs zero front-end work.
func CompileStats() (hits, misses, frontend uint64) {
	return cacheHits.Load(), cacheMisses.Load(), frontendRuns.Load()
}

// FlushCompileCache empties the compiled-kernel cache (tests, and the
// overflow path).
func FlushCompileCache() {
	defCacheMu.Lock()
	defCache = make(map[string]*kernels.Def)
	defCacheMu.Unlock()
}

// cachedCompile resolves src+signature through the cache, compiling with
// default engine options on miss. Compile errors are not cached.
func cachedCompile(src, signature string) (*kernels.Def, error) {
	key := CacheKey(src, signature)
	defCacheMu.Lock()
	if d, ok := defCache[key]; ok {
		defCacheMu.Unlock()
		cacheHits.Add(1)
		return d, nil
	}
	defCacheMu.Unlock()
	cacheMisses.Add(1)
	def, err := compileUncached(src, signature, engineOpts{})
	if err != nil {
		return nil, err
	}
	defCacheMu.Lock()
	if len(defCache) >= maxCachedDefs {
		defCache = make(map[string]*kernels.Def)
	}
	defCache[key] = def
	defCacheMu.Unlock()
	return def, nil
}
