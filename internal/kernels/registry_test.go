package kernels

import (
	"sync"
	"testing"

	"grout/internal/memmodel"
)

// Every StdRegistry shares the stdlib Defs, but each has its own map: a
// kernel registered in one, directly or through LookupOrRegister, is
// absent from every other.
func TestStdRegistriesIndependent(t *testing.T) {
	a, b := StdRegistry(), StdRegistry()
	da, _ := a.Lookup("relu")
	db, _ := b.Lookup("relu")
	if da == nil || da != db {
		t.Fatalf("stdlib relu not shared: %p vs %p", da, db)
	}
	mine := &Def{Name: "mine", Sig: mustSig("pointer float, sint32")}
	if err := a.Register(mine); err != nil {
		t.Fatal(err)
	}
	theirs := &Def{Name: "theirs", Sig: mustSig("pointer float, sint32")}
	if got, err := b.LookupOrRegister(theirs); err != nil || got != theirs {
		t.Fatalf("LookupOrRegister = %v, %v", got, err)
	}
	if _, ok := b.Lookup("mine"); ok {
		t.Error("kernel registered in one registry visible in another")
	}
	if _, ok := a.Lookup("theirs"); ok {
		t.Error("kernel LookupOrRegistered in one registry visible in another")
	}
	if _, ok := StdRegistry().Lookup("mine"); ok {
		t.Error("kernel registered in one registry visible in a new one")
	}
	if len(a.Names()) != len(b.Names()) || len(a.Names()) != len(stdlib())+1 {
		t.Errorf("registry sizes %d and %d, stdlib %d", len(a.Names()), len(b.Names()), len(stdlib()))
	}
}

// Registries are built and the shared stdlib Defs used from many
// goroutines at once; under -race this shows the shared Defs are only
// read.
func TestStdRegistryConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := StdRegistry()
				for _, name := range []string{"relu", "axpy", "stencil3", "spmv_csr"} {
					d, ok := r.Lookup(name)
					if !ok {
						continue
					}
					metas := make([]ArgMeta, len(d.Sig.Params))
					for j, p := range d.Sig.Params {
						if p.Pointer {
							metas[j] = ArgMeta{IsBuffer: true, Len: 64}
						} else {
							metas[j] = ArgMeta{Scalar: 64}
						}
					}
					d.Access(metas)
					d.CostLaunch(1, 64, metas)
				}
				if _, err := r.LookupOrRegister(&Def{Name: "own", Sig: mustSig("pointer float, sint32"),
					AccessOf: func([]ArgMeta) []memmodel.Access { return nil }}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}
