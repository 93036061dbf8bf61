package main

// The -bench-json mode runs every row of the shared kernel table
// (internal/kernels: the registered experiments at their pinned cell
// plus the substrate kernels) in-process through testing.Benchmark and
// writes one JSON record per row: {name, ns/op, allocs/op, headline}.
// Committed snapshots (BENCH_<date>.json at the repo root) give the
// performance trajectory a baseline that `go test -bench` output alone
// never leaves behind. Timings are wall-clock and machine-dependent;
// allocs/op is stable. Combine with -nocache to snapshot the slow path.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernels"
)

// benchRecord is one benchmark's line item.
type benchRecord struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	Headline    string `json:"headline"`
}

// benchFile is the whole snapshot.
type benchFile struct {
	Date       string        `json:"date"`
	Go         string        `json:"go"`
	Caches     bool          `json:"caches"`
	TrialsCell int           `json:"trials_per_cell"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// runBenchJSON runs every row of table and writes the snapshot to path.
// A row that fails stops the run, and nothing is written.
func runBenchJSON(path string, caches bool, table []kernels.Kernel) error {
	out := benchFile{
		Date:       time.Now().UTC().Format("2006-01-02"),
		Go:         runtime.Version(),
		Caches:     caches,
		TrialsCell: kernels.Trials,
	}
	for _, k := range table {
		rec, err := measure(k)
		if err != nil {
			return err
		}
		out.Benchmarks = append(out.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "%-34s %14d ns/op %12d allocs/op   %s\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.Headline)
	}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks, caches=%v)\n", path, len(out.Benchmarks), out.Caches)
	return nil
}

// measure runs one row through testing.Benchmark. An experiment row
// runs for seconds and is measured once; a substrate kernel is measured
// three times and keeps its fastest repetition, since those are the
// rows -bench-diff gates on.
func measure(k kernels.Kernel) (benchRecord, error) {
	reps := 3
	if expIDPattern.MatchString(k.Name) {
		reps = 1
	}
	var best testing.BenchmarkResult
	for r := 0; r < reps; r++ {
		failed := false
		res := testing.Benchmark(func(b *testing.B) {
			defer func() { failed = b.Failed() }()
			k.Bench(b)
		})
		if failed {
			return benchRecord{}, fmt.Errorf("bench-json: kernel %s failed; see why with: go test -run=NONE -bench='Kernels/%s$' -benchtime=1x .", k.Name, k.Name)
		}
		if r == 0 || res.NsPerOp() < best.NsPerOp() {
			best = res
		}
	}
	return benchRecord{Name: k.Name, NsPerOp: best.NsPerOp(), AllocsPerOp: best.AllocsPerOp(), Headline: k.Headline}, nil
}
