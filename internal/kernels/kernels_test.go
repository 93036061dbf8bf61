package kernels

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
)

// TestTableCoversRegistryAndSnapshot guards the table's names: unique,
// one row with a shape per registered experiment, and every row of the
// newest committed snapshot still produced, so `benchgen -bench-diff`
// against it shows no row as "old only".
func TestTableCoversRegistryAndSnapshot(t *testing.T) {
	rows := make(map[string]bool, len(Table))
	for _, k := range Table {
		if rows[k.Name] {
			t.Errorf("row %q appears twice", k.Name)
		}
		rows[k.Name] = true
		if k.Headline == "" || k.Bench == nil {
			t.Errorf("row %q has no headline or no body", k.Name)
		}
	}
	for _, e := range experiments.Registry {
		if !rows[e.ID] {
			t.Errorf("experiment %s has no row", e.ID)
		}
		if _, ok := shapes[e.ID]; !ok {
			t.Errorf("experiment %s has no shape check", e.ID)
		}
	}

	// Snapshot names start BENCH_<date>, so the last match is the newest.
	snaps, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no committed snapshot: %v", err)
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Benchmarks []struct{ Name string }
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("%s: %v", newest, err)
	}
	for _, r := range snap.Benchmarks {
		if !rows[r.Name] {
			t.Errorf("%s row %q is no longer produced", filepath.Base(newest), r.Name)
		}
	}
}
