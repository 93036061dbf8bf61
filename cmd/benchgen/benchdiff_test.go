package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func bf(recs ...benchRecord) *benchFile {
	return &benchFile{Date: "2026-08-07", Go: "go1.24", Benchmarks: recs}
}

func TestDiffBenchFilesGatesHeadlineKernelsOnly(t *testing.T) {
	oldF := bf(
		benchRecord{Name: "e7", NsPerOp: 1_000_000},
		benchRecord{Name: "RouteTraffic", NsPerOp: 10_000, AllocsPerOp: 100},
		benchRecord{Name: "WorldClone", NsPerOp: 5_000, AllocsPerOp: 20},
	)
	newF := bf(
		benchRecord{Name: "e7", NsPerOp: 2_000_000}, // 2x slower, but experiments don't gate
		benchRecord{Name: "RouteTraffic", NsPerOp: 2_000, AllocsPerOp: 10},
		benchRecord{Name: "WorldClone", NsPerOp: 5_500, AllocsPerOp: 20}, // +10%: within limit
	)
	rows, regressed := diffBenchFiles(oldF, newF)
	if len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none", regressed)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Headline {
		t.Error("e7 must not be a gating headline kernel")
	}
	if !rows[1].Headline || rows[1].NsRatio != 0.2 {
		t.Errorf("RouteTraffic row = %+v, want headline with ratio 0.2", rows[1])
	}
	if rows[1].AllocRatio != 0.1 {
		t.Errorf("RouteTraffic alloc ratio = %v, want 0.1", rows[1].AllocRatio)
	}
}

func TestDiffBenchFilesFlagsRegression(t *testing.T) {
	oldF := bf(benchRecord{Name: "RouteDAG", NsPerOp: 1_000})
	newF := bf(benchRecord{Name: "RouteDAG", NsPerOp: 1_250}) // +25%
	_, regressed := diffBenchFiles(oldF, newF)
	if len(regressed) != 1 || regressed[0] != "RouteDAG" {
		t.Fatalf("regressed = %v, want [RouteDAG]", regressed)
	}
	// Exactly at the limit must pass: the gate is strictly greater-than.
	newF.Benchmarks[0].NsPerOp = 1_200
	_, regressed = diffBenchFiles(oldF, newF)
	if len(regressed) != 0 {
		t.Fatalf("ratio 1.20 regressed = %v, want none", regressed)
	}
}

func TestDiffBenchFilesHandlesMissingRows(t *testing.T) {
	oldF := bf(
		benchRecord{Name: "Removed", NsPerOp: 10},
		benchRecord{Name: "Kept", NsPerOp: 10},
	)
	newF := bf(
		benchRecord{Name: "Kept", NsPerOp: 10},
		benchRecord{Name: "Added", NsPerOp: 10},
	)
	rows, regressed := diffBenchFiles(oldF, newF)
	if len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none", regressed)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	byName := map[string]benchDiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if !byName["Removed"].Missing || !byName["Added"].Missing || byName["Kept"].Missing {
		t.Fatalf("missing flags wrong: %+v", rows)
	}
	var sb strings.Builder
	writeBenchDiff(&sb, "old.json", "new.json", rows)
	out := sb.String()
	if !strings.Contains(out, "old only") || !strings.Contains(out, "new only") {
		t.Fatalf("table should mark one-sided rows:\n%s", out)
	}
}

// One extra allocation per op on a small headline row fails the diff
// and names the row, even with ns/op level; the same +1 on a large row,
// or any allocs/op jump on an experiment row, does not.
func TestDiffBenchFilesFlagsAllocRegression(t *testing.T) {
	oldF := bf(
		benchRecord{Name: "e2", NsPerOp: 1_000_000, AllocsPerOp: 1000},
		benchRecord{Name: "SeedRand", NsPerOp: 2_000, AllocsPerOp: 2},
		benchRecord{Name: "HelperSessionCascade", NsPerOp: 3_000_000, AllocsPerOp: 3777},
	)
	newF := bf(
		benchRecord{Name: "e2", NsPerOp: 1_000_000, AllocsPerOp: 2000},
		benchRecord{Name: "SeedRand", NsPerOp: 2_000, AllocsPerOp: 3},
		benchRecord{Name: "HelperSessionCascade", NsPerOp: 3_000_000, AllocsPerOp: 3778},
	)
	rows, regressed := diffBenchFiles(oldF, newF)
	if len(regressed) != 1 || regressed[0] != "SeedRand" {
		t.Fatalf("regressed = %v, want [SeedRand]", regressed)
	}
	var sb strings.Builder
	writeBenchDiff(&sb, "old.json", "new.json", rows)
	if !strings.Contains(sb.String(), "REGRESSED allocs/op") {
		t.Fatalf("table should mark the allocs/op regression:\n%s", sb.String())
	}
	// Exactly at the limit passes: the gate is strictly greater-than.
	oldF.Benchmarks[1].AllocsPerOp, newF.Benchmarks[1].AllocsPerOp = 100, 105
	if _, regressed = diffBenchFiles(oldF, newF); len(regressed) != 0 {
		t.Fatalf("allocs ratio 1.05 regressed = %v, want none", regressed)
	}
}

// B/op is printed for both sides but never gates: doubling it on a
// headline row passes, and a snapshot that predates B/op shows "-".
func TestDiffBenchFilesReportsBytesWithoutGating(t *testing.T) {
	oldF := bf(
		benchRecord{Name: "OneShotSession", NsPerOp: 2_000_000, AllocsPerOp: 400, BytesPerOp: 300_000},
		benchRecord{Name: "RouteTraffic", NsPerOp: 10_000, AllocsPerOp: 100},
	)
	newF := bf(
		benchRecord{Name: "OneShotSession", NsPerOp: 2_000_000, AllocsPerOp: 400, BytesPerOp: 600_000},
		benchRecord{Name: "RouteTraffic", NsPerOp: 10_000, AllocsPerOp: 100, BytesPerOp: 4_096},
	)
	rows, regressed := diffBenchFiles(oldF, newF)
	if len(regressed) != 0 {
		t.Fatalf("regressed = %v, want none: B/op does not gate", regressed)
	}
	if rows[0].OldBytes != 300_000 || rows[0].NewBytes != 600_000 {
		t.Fatalf("OneShotSession row = %+v, want B/op 300000 -> 600000", rows[0])
	}
	var sb strings.Builder
	writeBenchDiff(&sb, "old.json", "new.json", rows)
	out := sb.String()
	for _, want := range []string{"old B/op", "300000       600000", "-         4096"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table lacks %q:\n%s", want, out)
		}
	}
}

// Every committed snapshot parses and passes the gate against itself.
func TestCommittedSnapshotsPassAgainstThemselves(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed snapshots found (%v)", err)
	}
	for _, p := range paths {
		f, err := loadBenchFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Benchmarks) == 0 {
			t.Errorf("%s: no benchmark rows", p)
		}
		if _, regressed := diffBenchFiles(f, f); len(regressed) != 0 {
			t.Errorf("%s against itself: regressed %v", p, regressed)
		}
	}
}
