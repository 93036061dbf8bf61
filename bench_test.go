package aiops

import (
	"testing"

	"repro/internal/kernels"
)

// BenchmarkKernels runs every row of the shared kernel table as a
// sub-benchmark: `go test -run=NONE -bench='Kernels/RouteDAG$' .` runs
// one row, `-bench=Kernels` all of them. `benchgen -bench-json` runs the
// same rows to write the BENCH_<date>.json snapshots.
func BenchmarkKernels(b *testing.B) {
	for _, k := range kernels.Table {
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			k.Bench(b)
		})
	}
}
