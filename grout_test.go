package grout

import (
	"testing"
	"time"

	"grout/internal/core"
	"grout/internal/gpusim"
	"grout/internal/memmodel"
	"grout/internal/server"
	"grout/internal/transport"
)

const squareSrc = `
extern "C" __global__ void square(float *x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) { x[i] = x[i] * x[i]; }
}`

// driveListing1 runs the paper's Listing 1 program against any context.
func driveListing1(t *testing.T, ctx *Context, lang Language) {
	t.Helper()
	b, err := ctx.Eval(lang, "buildkernel")
	if err != nil {
		t.Fatal(err)
	}
	square, err := b.Build.Build(squareSrc, "pointer float, sint32")
	if err != nil {
		t.Fatal(err)
	}
	x, err := ctx.Eval(lang, "float[100]")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := x.Array.Set(i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := square.Configure(4, 32).Launch(x.Array, 100); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{0, 7, 99} {
		v, err := x.Array.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != float64(i*i) {
			t.Fatalf("x[%d] = %v, want %d", i, v, i*i)
		}
	}
}

func TestSimulatedClusterQuickstart(t *testing.T) {
	c, err := NewSimulatedCluster(Config{Workers: 2, Policy: "round-robin", Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	driveListing1(t, c.Context, GrOUT)
	if c.Controller.Elapsed() == 0 {
		t.Fatalf("no virtual time recorded")
	}
}

func TestSingleNodeQuickstart(t *testing.T) {
	s := NewSingleNode(true)
	driveListing1(t, s.Context, GrCUDA)
}

func TestRemoteQuickstartOverTCP(t *testing.T) {
	w1, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	w2, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w2"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	r, err := Connect([]string{w1.Addr(), w2.Addr()}, Config{Policy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	driveListing1(t, r.Context, GrOUT)
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Workers: -1}).Validate(); err == nil {
		t.Fatalf("negative workers accepted")
	}
	if err := (Config{Policy: "bogus"}).Validate(); err == nil {
		t.Fatalf("bogus policy accepted")
	}
	if err := (Config{Policy: "min-transfer-size", Level: "extreme"}).Validate(); err == nil {
		t.Fatalf("bogus level accepted")
	}
	if err := (Config{Policy: "min-transfer-time", Level: "high"}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestPoliciesListed(t *testing.T) {
	ps := Policies()
	if len(ps) != 6 {
		t.Fatalf("policies = %v", ps)
	}
}

func TestDefaultConfigDefaults(t *testing.T) {
	c, err := NewSimulatedCluster(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Fabric.Workers()); got != 2 {
		t.Fatalf("default workers = %d, want 2", got)
	}
	if c.Controller.Policy().Name() != "vector-step" {
		t.Fatalf("default policy = %s", c.Controller.Policy().Name())
	}
}

// Close must be idempotent and safe after a failed Connect: callers
// write `r, err := Connect(...); defer r.Close()` and only then check
// err, so a nil receiver must not panic.
func TestCloseIdempotentAndNilSafe(t *testing.T) {
	r, err := Connect([]string{"127.0.0.1:1"}, Config{DialTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("Connect to a dead port succeeded")
	}
	if cerr := r.Close(); cerr != nil {
		t.Fatalf("Close after failed Connect: %v", cerr)
	}
	var nilRemote *Remote
	if cerr := nilRemote.Close(); cerr != nil {
		t.Fatalf("nil Remote Close: %v", cerr)
	}
	var nilCluster *Cluster
	if cerr := nilCluster.Close(); cerr != nil {
		t.Fatalf("nil Cluster Close: %v", cerr)
	}
	if cerr := (&Remote{}).Close(); cerr != nil {
		t.Fatalf("zero Remote Close: %v", cerr)
	}

	c, err := NewSimulatedCluster(Config{Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if cerr := c.Close(); cerr != nil {
			t.Fatalf("Cluster Close #%d: %v", i+1, cerr)
		}
	}

	w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("w"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r2, err := Connect([]string{w.Addr()}, Config{Policy: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if cerr := r2.Close(); cerr != nil {
			t.Fatalf("Remote Close #%d: %v", i+1, cerr)
		}
	}
}

// Dial gives a workloads.Session view onto a multi-tenant gateway.
func TestDialGateway(t *testing.T) {
	c, err := NewSimulatedCluster(Config{Workers: 2, Policy: "round-robin", Numeric: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g, err := server.New(c.Controller, "127.0.0.1:0", server.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sess, err := Dial(g.Addr(), "quickstart")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	id, err := sess.NewArray(memmodel.Float32, 32)
	if err != nil {
		t.Fatal(err)
	}
	sess.Buffer(id).Fill(-2)
	if err := sess.HostWrite(id); err != nil {
		t.Fatal(err)
	}
	if err := sess.Launch("relu", 0, 0, core.ArrRef(id), core.ScalarRef(32)); err != nil {
		t.Fatal(err)
	}
	if err := sess.HostRead(id); err != nil {
		t.Fatal(err)
	}
	if got := sess.Buffer(id).At(7); got != 0 {
		t.Fatalf("relu result = %v, want 0", got)
	}
}
