package main

// The -bench-diff mode compares two -bench-json snapshots and gates on
// regressions: `benchgen -bench-diff OLD.json NEW.json` prints a
// per-kernel ratio table (ns/op and allocs/op, new/old) and exits
// nonzero when any headline kernel's ns/op regresses by more than 20%.
// "Headline kernels" are the substrate micro-kernels — every record
// whose name is not an experiment id (e1, e2, ...). Experiment rows are
// reported but don't gate: their wall time includes full table
// generation and is too coarse for a ratio threshold.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// benchRegressLimit is the gating threshold: a headline kernel whose
// ns/op ratio (new/old) exceeds this fails the diff.
const benchRegressLimit = 1.20

var expIDPattern = regexp.MustCompile(`^e\d+$`)

// benchDiffRow is one kernel's old/new comparison.
type benchDiffRow struct {
	Name                 string
	OldNs, NewNs         int64
	OldAllocs, NewAllocs int64
	NsRatio              float64
	AllocRatio           float64
	Headline             bool // gates the exit code
	Missing              bool // present in only one snapshot
}

func ratio(newV, oldV int64) float64 {
	if oldV <= 0 {
		if newV <= 0 {
			return 1
		}
		return float64(newV)
	}
	return float64(newV) / float64(oldV)
}

// diffBenchFiles joins two snapshots by benchmark name (old-file order,
// then new-only rows) and returns the rows plus the names of headline
// kernels that regressed past benchRegressLimit.
func diffBenchFiles(oldF, newF *benchFile) (rows []benchDiffRow, regressed []string) {
	newByName := make(map[string]benchRecord, len(newF.Benchmarks))
	for _, r := range newF.Benchmarks {
		newByName[r.Name] = r
	}
	seen := make(map[string]bool, len(oldF.Benchmarks))
	for _, o := range oldF.Benchmarks {
		seen[o.Name] = true
		row := benchDiffRow{
			Name:      o.Name,
			OldNs:     o.NsPerOp,
			OldAllocs: o.AllocsPerOp,
			Headline:  !expIDPattern.MatchString(o.Name),
		}
		nr, ok := newByName[o.Name]
		if !ok {
			row.Missing = true
			rows = append(rows, row)
			continue
		}
		row.NewNs = nr.NsPerOp
		row.NewAllocs = nr.AllocsPerOp
		row.NsRatio = ratio(nr.NsPerOp, o.NsPerOp)
		row.AllocRatio = ratio(nr.AllocsPerOp, o.AllocsPerOp)
		if row.Headline && row.NsRatio > benchRegressLimit {
			regressed = append(regressed, o.Name)
		}
		rows = append(rows, row)
	}
	for _, nr := range newF.Benchmarks {
		if seen[nr.Name] {
			continue
		}
		rows = append(rows, benchDiffRow{
			Name:      nr.Name,
			NewNs:     nr.NsPerOp,
			NewAllocs: nr.AllocsPerOp,
			Headline:  !expIDPattern.MatchString(nr.Name),
			Missing:   true,
		})
	}
	return rows, regressed
}

// writeBenchDiff renders the comparison table. Ratios below 1 are
// speedups; the `gate` column marks rows that participate in the exit
// code.
func writeBenchDiff(w io.Writer, oldPath, newPath string, rows []benchDiffRow) {
	fmt.Fprintf(w, "bench-diff: %s -> %s (gate: headline ns/op ratio <= %.2f)\n\n", oldPath, newPath, benchRegressLimit)
	fmt.Fprintf(w, "%-34s %14s %14s %8s %10s %10s %8s  %s\n",
		"name", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs", "ratio", "gate")
	for _, r := range rows {
		gate := "-"
		if r.Headline {
			gate = "kernel"
		}
		if r.Missing {
			side := "old only"
			ns, allocs := r.OldNs, r.OldAllocs
			if r.OldNs == 0 && r.OldAllocs == 0 {
				side = "new only"
				ns, allocs = r.NewNs, r.NewAllocs
			}
			fmt.Fprintf(w, "%-34s %14d %14s %8s %10d %10s %8s  %s (%s)\n",
				r.Name, ns, "-", "-", allocs, "-", "-", gate, side)
			continue
		}
		verdict := ""
		if r.Headline && r.NsRatio > benchRegressLimit {
			verdict = "  REGRESSED"
		}
		fmt.Fprintf(w, "%-34s %14d %14d %7.2fx %10d %10d %7.2fx  %s%s\n",
			r.Name, r.OldNs, r.NewNs, r.NsRatio, r.OldAllocs, r.NewAllocs, r.AllocRatio, gate, verdict)
	}
}

func loadBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runBenchDiff loads both snapshots, prints the table, and returns an
// error naming every regressed headline kernel (the caller exits
// nonzero on it).
func runBenchDiff(oldPath, newPath string) error {
	oldF, err := loadBenchFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	if oldF.Caches != newF.Caches {
		fmt.Fprintf(os.Stderr, "warning: comparing caches=%v against caches=%v\n", oldF.Caches, newF.Caches)
	}
	rows, regressed := diffBenchFiles(oldF, newF)
	writeBenchDiff(os.Stdout, oldPath, newPath, rows)
	if len(regressed) > 0 {
		return fmt.Errorf("bench-diff: %d headline kernel(s) regressed >%d%%: %s",
			len(regressed), int((benchRegressLimit-1)*100), strings.Join(regressed, ", "))
	}
	fmt.Printf("\nbench-diff: no headline kernel regressed more than %d%%\n", int((benchRegressLimit-1)*100))
	return nil
}
