package transport

// Fuzz and adversarial-input tests for the tenant-session frame codec:
// decoding must never panic, valid payloads must round-trip bit-exactly,
// and truncated or garbage-extended payloads must be rejected — the same
// guarantees the controller↔worker codec carries (frame_fuzz_test.go).

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"grout/internal/core"
	"grout/internal/kernels"
	"grout/internal/memmodel"
)

// sampleSessionRequests covers every field of the SessionRequest layout.
func sampleSessionRequests() []*SessionRequest {
	buf := kernels.NewBuffer(memmodel.Float64, 6)
	for i := 0; i < 6; i++ {
		buf.Set(i, float64(i)*0.25-1)
	}
	f32 := kernels.NewBuffer(memmodel.Float32, 3)
	f32.Fill(42)
	return []*SessionRequest{
		{},
		{Kind: SessOpen, Name: "tenant-a"},
		{Kind: SessPing},
		{Kind: SessNewArray, Elem: memmodel.Int64, Len: 1 << 24},
		{Kind: SessHostWrite, Array: 7, Data: buf},
		{Kind: SessHostWrite, Array: 8, Data: f32},
		{Kind: SessHostRead, Array: 3},
		{Kind: SessFree, Array: 9},
		{Kind: SessBuildKernel, Src: "extern \"C\" __global__ void k() {}", Signature: "pointer float"},
		{Kind: SessElapsed},
		{Kind: SessClose},
		{Kind: SessShardInfo},
		{Kind: SessLaunch, Inv: core.Invocation{Kernel: "axpy", Grid: 64, Block: 128,
			Args: []core.ArgRef{
				core.ArrRef(1), core.ArrRef(2),
				core.ScalarRef(math.Pi), core.ScalarRef(math.Inf(1)),
				core.ScalarRef(math.NaN()),
			}}},
	}
}

func sampleSessionResponses() []*SessionResponse {
	buf := kernels.NewBuffer(memmodel.Float32, 4)
	buf.Fill(-1.5)
	return []*SessionResponse{
		{},
		{Err: "boom", Code: CodeGeneric},
		{Err: "over quota", Code: CodeQuotaExceeded},
		{Err: "shed", Code: CodeShedded},
		{Array: 12},
		{Elapsed: 1 << 42},
		{Name: "k_generated_3"},
		{Shard: 2, ShardCount: 8},
		{Data: buf},
		// Backpressure advisories ride launch acks; covering them here
		// feeds the round-trip, truncation and fuzz suites automatically.
		{BP: &Backpressure{}},
		{BP: &Backpressure{Queued: 48, QueueCap: 64, Pause: 5 * 1000 * 1000}},
		{Shard: 1, ShardCount: 4, BP: &Backpressure{Queued: 1, QueueCap: 1, Pause: 1 << 40}},
		{Data: buf, BP: &Backpressure{Queued: 63, QueueCap: 64}},
	}
}

// sampleBackpressures covers the standalone advisory layout.
func sampleBackpressures() []*Backpressure {
	return []*Backpressure{
		{},
		{Queued: 7, QueueCap: 64, Pause: 250 * 1000},
		{Queued: 1 << 30, QueueCap: 1 << 31, Pause: 1 << 50},
		{Queued: -1, QueueCap: -1, Pause: -1}, // decoder is not a validator
	}
}

func TestSessionRequestRoundTrip(t *testing.T) {
	for i, req := range sampleSessionRequests() {
		p := appendSessionRequest(nil, req)
		got := &SessionRequest{}
		if err := parseSessionRequestInto(p, got); err != nil {
			t.Fatalf("request %d: decode: %v", i, err)
		}
		if !sessionRequestEq(req, got) {
			t.Fatalf("request %d: round trip mismatch: %+v vs %+v", i, req, got)
		}
	}
}

func TestSessionResponseRoundTrip(t *testing.T) {
	for i, resp := range sampleSessionResponses() {
		p := appendSessionResponse(nil, resp)
		got := &SessionResponse{}
		if err := parseSessionResponseInto(p, got); err != nil {
			t.Fatalf("response %d: decode: %v", i, err)
		}
		if !sessionResponseEq(resp, got) {
			t.Fatalf("response %d: round trip mismatch: %+v vs %+v", i, resp, got)
		}
	}
}

// Truncations and trailing garbage must all be rejected, never panic.
func TestSessionCodecRejectsTruncatedPayloads(t *testing.T) {
	for _, req := range sampleSessionRequests() {
		p := appendSessionRequest(nil, req)
		for cut := 0; cut < len(p); cut++ {
			if err := parseSessionRequestInto(p[:cut], &SessionRequest{}); err == nil {
				t.Fatalf("request truncation to %d of %d bytes accepted", cut, len(p))
			}
		}
		if err := parseSessionRequestInto(append(append([]byte{}, p...), 0xff), &SessionRequest{}); err == nil {
			t.Fatalf("request trailing garbage accepted")
		}
	}
	for _, resp := range sampleSessionResponses() {
		p := appendSessionResponse(nil, resp)
		for cut := 0; cut < len(p); cut++ {
			if err := parseSessionResponseInto(p[:cut], &SessionResponse{}); err == nil {
				t.Fatalf("response truncation to %d of %d bytes accepted", cut, len(p))
			}
		}
		if err := parseSessionResponseInto(append(append([]byte{}, p...), 0xaa), &SessionResponse{}); err == nil {
			t.Fatalf("response trailing garbage accepted")
		}
	}
}

// The quota sentinel must survive the wire errors.Is-ably, like the
// other typed codes.
func TestSessionQuotaCodeSurvivesWire(t *testing.T) {
	resp := &SessionResponse{}
	resp.SetErr(core.ErrQuotaExceeded)
	p := appendSessionResponse(nil, resp)
	got := &SessionResponse{}
	if err := parseSessionResponseInto(p, got); err != nil {
		t.Fatal(err)
	}
	if err := got.Ok(); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("quota error did not survive the wire: %v", err)
	}
}

// The shed sentinel must survive the wire errors.Is-ably too — clients
// retry shed launches, so the typed identity is load-bearing.
func TestSessionShedCodeSurvivesWire(t *testing.T) {
	resp := &SessionResponse{}
	resp.SetErr(fmt.Errorf("shard 2 saturated: %w", core.ErrShedded))
	p := appendSessionResponse(nil, resp)
	got := &SessionResponse{}
	if err := parseSessionResponseInto(p, got); err != nil {
		t.Fatal(err)
	}
	if err := got.Ok(); !errors.Is(err, core.ErrShedded) {
		t.Fatalf("shed error did not survive the wire: %v", err)
	}
}

func TestBackpressureRoundTrip(t *testing.T) {
	for i, bp := range sampleBackpressures() {
		p := appendBackpressure(nil, bp)
		got := &Backpressure{}
		if err := parseBackpressureInto(p, got); err != nil {
			t.Fatalf("advisory %d: decode: %v", i, err)
		}
		if !backpressureEq(bp, got) {
			t.Fatalf("advisory %d: round trip mismatch: %+v vs %+v", i, bp, got)
		}
	}
}

func TestBackpressureRejectsTruncatedPayloads(t *testing.T) {
	for _, bp := range sampleBackpressures() {
		p := appendBackpressure(nil, bp)
		for cut := 0; cut < len(p); cut++ {
			if err := parseBackpressureInto(p[:cut], &Backpressure{}); err == nil {
				t.Fatalf("advisory truncation to %d of %d bytes accepted", cut, len(p))
			}
		}
		if err := parseBackpressureInto(append(append([]byte{}, p...), 0x7f), &Backpressure{}); err == nil {
			t.Fatal("advisory trailing garbage accepted")
		}
	}
}

func FuzzSessionBackpressure(f *testing.F) {
	for _, bp := range sampleBackpressures() {
		f.Add(appendBackpressure(nil, bp))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		bp := &Backpressure{}
		if err := parseBackpressureInto(data, bp); err != nil {
			return
		}
		p := appendBackpressure(nil, bp)
		got := &Backpressure{}
		if err := parseBackpressureInto(p, got); err != nil {
			t.Fatalf("re-decode of re-encoded advisory failed: %v", err)
		}
		if !backpressureEq(bp, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", bp, got)
		}
	})
}

func FuzzSessionRequest(f *testing.F) {
	for _, req := range sampleSessionRequests() {
		f.Add(appendSessionRequest(nil, req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		req := &SessionRequest{}
		if err := parseSessionRequestInto(data, req); err != nil {
			return // malformed input rejected: fine
		}
		p := appendSessionRequest(nil, req)
		got := &SessionRequest{}
		if err := parseSessionRequestInto(p, got); err != nil {
			t.Fatalf("re-decode of re-encoded session request failed: %v", err)
		}
		if !sessionRequestEq(req, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", req, got)
		}
	})
}

func FuzzSessionResponse(f *testing.F) {
	for _, resp := range sampleSessionResponses() {
		f.Add(appendSessionResponse(nil, resp))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp := &SessionResponse{}
		if err := parseSessionResponseInto(data, resp); err != nil {
			return
		}
		p := appendSessionResponse(nil, resp)
		got := &SessionResponse{}
		if err := parseSessionResponseInto(p, got); err != nil {
			t.Fatalf("re-decode of re-encoded session response failed: %v", err)
		}
		if !sessionResponseEq(resp, got) {
			t.Fatalf("round trip mismatch: %+v vs %+v", resp, got)
		}
	})
}
