package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernels"
)

// TestBenchJSONFailingRow runs -bench-json over a table whose second
// row fails on its fourth iteration: the error must name that row, and
// no snapshot is written.
func TestBenchJSONFailingRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	table := []kernels.Kernel{
		{Name: "e0", Headline: "passes", Bench: func(b *testing.B) {
			for b.Loop() {
			}
		}},
		{Name: "BrokenKernel", Headline: "fails", Bench: func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if i == 3 {
					b.Fatal("shape check failed")
				}
			}
		}},
	}
	err := runBenchJSON(path, true, table)
	if err == nil || !strings.Contains(err.Error(), "BrokenKernel") {
		t.Fatalf("runBenchJSON error = %v, want one naming BrokenKernel", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot written despite a failing row (stat: %v)", err)
	}
}
