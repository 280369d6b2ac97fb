package grcuda

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"grout/internal/dag"
	"grout/internal/memmodel"
	"grout/internal/sim"
)

// longStreamCEs is longer than the dag's retirement horizon and the record
// ring together, so every CE of the stream's first half has been retired
// and its record overwritten by the time the stream ends.
const longStreamCEs = 50_000

// runLongStream drives a seeded stream of kernels, host ops and temporary
// arrays through one cost-only runtime and returns a digest of every
// completion time it was handed. The stream mixes single-parent CEs (the
// stream-reuse branch of pickStream), multi-parent joins, read fan-out,
// arrays of very different sizes (so both devices and several streams are
// used) and alloc/launch/free of short-lived arrays.
func runLongStream(t testing.TB, r *Runtime, seed int64) (digest uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sizes := []int64{1 << 10, 1 << 12, 1 << 16, 1 << 20, 1 << 22, 1 << 24}
	arrs := make([]*Array, 12)
	for i := range arrs {
		a, err := r.NewArray(memmodel.Float32, sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		arrs[i] = a
	}
	h := fnv.New64a()
	var word [8]byte
	note := func(end sim.VirtualTime, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(word[:], uint64(end))
		h.Write(word[:])
	}
	n := func(a *Array) Value { return ScalarValue(float64(a.Len)) }
	pick := func() *Array { return arrs[rng.Intn(len(arrs))] }
	// pair picks two arrays of equal length (x shorter or equal works for
	// the cost model; equal keeps it honest).
	pair := func() (*Array, *Array) {
		y := pick()
		for {
			if x := pick(); x != y && x.Len == y.Len {
				return y, x
			}
		}
	}
	for i := 0; i < longStreamCEs; i++ {
		switch k := rng.Intn(100); {
		case k < 30:
			x := pick()
			note(r.Submit(Invocation{Kernel: "relu", Args: []Value{ArrValue(x), n(x)}}, 0))
		case k < 50:
			y, x := pair()
			note(r.Submit(Invocation{Kernel: "axpy",
				Args: []Value{ArrValue(y), ArrValue(x), ScalarValue(0.5), n(y)}}, 0))
		case k < 65:
			y, x := pair()
			note(r.Submit(Invocation{Kernel: "copy", Args: []Value{ArrValue(y), ArrValue(x), n(y)}}, 0))
		case k < 80:
			// Read fan-out: dot writes a one-off output and reads two
			// long-lived arrays, which therefore collect readers.
			_, x := pair()
			y, _ := pair()
			out, err := r.NewArray(memmodel.Float32, 1)
			if err != nil {
				t.Fatal(err)
			}
			cnt := x.Len
			if y.Len < cnt {
				cnt = y.Len
			}
			note(r.Submit(Invocation{Kernel: "dot",
				Args: []Value{ArrValue(out), ArrValue(x), ArrValue(y), ScalarValue(float64(cnt))}}, 0))
			if err := r.FreeArray(out.ID); err != nil {
				t.Fatal(err)
			}
		case k < 90:
			x := pick()
			note(r.Submit(Invocation{Kernel: "fill", Args: []Value{ArrValue(x), ScalarValue(1), n(x)}}, 0))
		case k < 95:
			note(r.HostRead(pick().ID, 0))
		default:
			note(r.HostWrite(pick().ID, 0))
		}
	}
	return h.Sum64()
}

// TestLongStreamPinned pins a 50 000-CE stream's makespan, the digest of
// every completion time and the last execution records to the values the
// runtime produced before it retired anything (commit b5bcb5a): retiring
// completed CEs and ringing the record log must not move a stream choice or
// a virtual time anywhere in the stream.
func TestLongStreamPinned(t *testing.T) {
	r := newRuntime(t, false)
	digest := runLongStream(t, r, 7)

	const (
		wantElapsed = sim.VirtualTime(9264091550)
		wantDigest  = uint64(0x807e3ed387ebe702)
	)
	wantTail := []CERecord{
		{CE: 49997, Label: "copy", Device: 0, Stream: 8, Start: 9262009880, End: 9262018043},
		{CE: 49998, Label: "relu", Device: 0, Stream: 8, Start: 9262018043, End: 9262026206},
		{CE: 49999, Label: "host-write", Device: -1, Stream: -1, Start: 9264060092, End: 9264060092},
		{CE: 50000, Label: "relu", Device: 0, Stream: 1, Start: 9264041607, End: 9264091550},
	}

	if got := r.Elapsed(); got != wantElapsed {
		t.Errorf("Elapsed = %d, want %d", got, wantElapsed)
	}
	if digest != wantDigest {
		t.Errorf("completion-time digest = %#x, want %#x", digest, wantDigest)
	}
	recs := r.Records()
	if len(recs) < len(wantTail) {
		t.Fatalf("Records holds %d entries, want at least %d", len(recs), len(wantTail))
	}
	tail := recs[len(recs)-len(wantTail):]
	for i, want := range wantTail {
		if tail[i] != want {
			t.Errorf("record %d from the end = %+v, want %+v", len(wantTail)-i, tail[i], want)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].CE <= recs[i-1].CE {
			t.Fatalf("Records out of order at %d: CE %d after CE %d", i, recs[i].CE, recs[i-1].CE)
		}
	}
	if got := r.Graph().Size(); got != longStreamCEs {
		t.Errorf("Graph().Size() = %d, want %d (CEs ever added)", got, longStreamCEs)
	}
	if t.Failed() {
		t.Logf("observed: elapsed=%d digest=%#x", r.Elapsed(), digest)
		for _, rec := range recs[len(recs)-4:] {
			t.Logf("observed tail: %#v", rec)
		}
	}
}

// TestFreeArrayReleasesGraphState: freeing an array takes its last writer
// and readers off the Local DAG's frontier, so a tenant that allocates,
// computes and frees in a loop holds no more graph after 10 000 rounds
// than after the first few thousand.
func TestFreeArrayReleasesGraphState(t *testing.T) {
	r := newRuntime(t, false)
	rounds := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			a, err := r.NewArray(memmodel.Float32, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Submit(Invocation{Kernel: "fill",
				Args: []Value{ArrValue(a), ScalarValue(1), ScalarValue(1024)}}, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Submit(Invocation{Kernel: "relu",
				Args: []Value{ArrValue(a), ScalarValue(1024)}}, 0); err != nil {
				t.Fatal(err)
			}
			if err := r.FreeArray(a.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	rounds(5000) // past the retirement horizon: Live has reached its plateau
	live, frontier := r.Graph().Live(), len(r.Graph().Frontier())
	rounds(10000)
	if got := r.Graph().Live(); got != live {
		t.Errorf("Live = %d after 10 000 more alloc/launch/free rounds, was %d", got, live)
	}
	if got := len(r.Graph().Frontier()); got != frontier || got != 0 {
		t.Errorf("frontier = %d vertices after 10 000 more rounds, was %d, want 0", got, frontier)
	}
	if live > dag.RetireHorizon {
		t.Errorf("Live = %d, want at most the horizon (%d): nothing is on the frontier", live, dag.RetireHorizon)
	}
}
