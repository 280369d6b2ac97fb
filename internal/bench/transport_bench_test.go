package bench

import (
	"testing"

	"grout/internal/cluster"
	"grout/internal/gpusim"
	"grout/internal/grcuda"
	"grout/internal/kernels"
	"grout/internal/memmodel"
	"grout/internal/transport"
)

// BenchmarkTransportThroughput measures array-shipping throughput over
// real loopback TCP, 1 KiB to 256 MiB. The MB/s column is the figure of
// merit for the bulk channel's chunked zero-copy path. Run via
// scripts/bench.sh, which records the results in BENCH_transport.json
// (the "framed" name segment is that file's key).
func BenchmarkTransportThroughput(b *testing.B) {
	sizes := []struct {
		name  string
		bytes int
	}{
		{"1KiB", 1 << 10},
		{"64KiB", 64 << 10},
		{"1MiB", 1 << 20},
		{"16MiB", 16 << 20},
		{"256MiB", 256 << 20},
	}
	for _, sz := range sizes {
		b.Run("framed/"+sz.name, func(b *testing.B) {
			benchTransfer(b, sz.bytes)
		})
	}
}

func benchTransfer(b *testing.B, bytes int) {
	w, err := transport.NewWorkerServer("127.0.0.1:0", gpusim.OCIWorkerSpec("bench"), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = w.Close() })
	fab, err := transport.Dial([]string{w.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = fab.Close() })

	elems := int64(bytes) / int64(memmodel.Float32.Size())
	if err := fab.EnsureArray(1, grcuda.ArrayMeta{ID: 1, Kind: memmodel.Float32, Len: elems}); err != nil {
		b.Fatal(err)
	}
	src := kernels.NewBuffer(memmodel.Float32, int(elems))
	for i := 0; i < src.Len(); i += 97 {
		src.Set(i, float64(i))
	}

	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fab.MoveArray(1, cluster.ControllerID, 1, 0, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}
