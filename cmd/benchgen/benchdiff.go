package main

// The -bench-diff mode compares two -bench-json snapshots and gates on
// regressions: `benchgen -bench-diff OLD.json NEW.json` prints a
// per-kernel ratio table (ns/op and allocs/op, new/old, and the old and
// new B/op, which do not gate) and exits
// nonzero when any headline kernel's ns/op regresses by more than 20%
// or its allocs/op by more than 5%. "Headline kernels" are the
// substrate micro-kernels — every record whose name is not an
// experiment id (e1, e2, ...). Experiment rows are reported but don't
// gate: their wall time includes full table generation and is too
// coarse for a ratio threshold.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
)

// benchRegressLimit is the ns/op gate: a headline kernel whose ns/op
// ratio (new/old) exceeds this fails the diff.
const benchRegressLimit = 1.20

// benchAllocLimit is the allocs/op gate: a headline kernel whose
// allocs/op ratio (new/old) exceeds this fails the diff. Unlike ns/op,
// allocs/op barely moves between runs of one binary: in two pairs of
// back-to-back caches-off snapshots (two binaries, 2-vCPU VM) the
// widest headline spread was 1.3% (FleetHelperSessions, 90,472–91,632),
// while ns/op moved up to 1.58x. 1.05 is about four times that spread,
// and on a row under 20 allocs/op one extra allocation trips it.
const benchAllocLimit = 1.05

var expIDPattern = regexp.MustCompile(`^e\d+$`)

// benchDiffRow is one kernel's old/new comparison.
type benchDiffRow struct {
	Name                 string
	OldNs, NewNs         int64
	OldAllocs, NewAllocs int64
	OldBytes, NewBytes   int64 // B/op; reported, not gated (0: not recorded)
	NsRatio              float64
	AllocRatio           float64
	Headline             bool // gates the exit code
	Missing              bool // present in only one snapshot
}

// failed names the gates a headline row fails ("ns/op", "allocs/op"),
// none for a passing, experiment or one-sided row.
func (r benchDiffRow) failed() []string {
	if !r.Headline || r.Missing {
		return nil
	}
	var out []string
	if r.NsRatio > benchRegressLimit {
		out = append(out, "ns/op")
	}
	if r.AllocRatio > benchAllocLimit {
		out = append(out, "allocs/op")
	}
	return out
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
// kernels that fail a gate.
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
			OldBytes:  o.BytesPerOp,
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
		row.NewBytes = nr.BytesPerOp
		row.NsRatio = ratio(nr.NsPerOp, o.NsPerOp)
		row.AllocRatio = ratio(nr.AllocsPerOp, o.AllocsPerOp)
		if len(row.failed()) > 0 {
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
			NewBytes:  nr.BytesPerOp,
			Headline:  !expIDPattern.MatchString(nr.Name),
			Missing:   true,
		})
	}
	return rows, regressed
}

// bytesCell renders a B/op value, or "-" for a snapshot that did not
// record it.
func bytesCell(b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprint(b)
}

// writeBenchDiff renders the comparison table. Ratios below 1 are
// speedups; the `gate` column marks rows that participate in the exit
// code.
func writeBenchDiff(w io.Writer, oldPath, newPath string, rows []benchDiffRow) {
	fmt.Fprintf(w, "bench-diff: %s -> %s (gate: headline ns/op ratio <= %.2f, allocs/op ratio <= %.2f; B/op not gated)\n\n",
		oldPath, newPath, benchRegressLimit, benchAllocLimit)
	fmt.Fprintf(w, "%-34s %14s %14s %8s %10s %10s %8s %12s %12s  %s\n",
		"name", "old ns/op", "new ns/op", "ratio", "old allocs", "new allocs", "ratio", "old B/op", "new B/op", "gate")
	for _, r := range rows {
		gate := "-"
		if r.Headline {
			gate = "kernel"
		}
		if r.Missing {
			side := "old only"
			ns, allocs, bytes := r.OldNs, r.OldAllocs, r.OldBytes
			if r.OldNs == 0 && r.OldAllocs == 0 {
				side = "new only"
				ns, allocs, bytes = r.NewNs, r.NewAllocs, r.NewBytes
			}
			fmt.Fprintf(w, "%-34s %14d %14s %8s %10d %10s %8s %12s %12s  %s (%s)\n",
				r.Name, ns, "-", "-", allocs, "-", "-", bytesCell(bytes), "-", gate, side)
			continue
		}
		verdict := ""
		if gates := r.failed(); len(gates) > 0 {
			verdict = "  REGRESSED " + strings.Join(gates, ", ")
		}
		fmt.Fprintf(w, "%-34s %14d %14d %7.2fx %10d %10d %7.2fx %12s %12s  %s%s\n",
			r.Name, r.OldNs, r.NewNs, r.NsRatio, r.OldAllocs, r.NewAllocs, r.AllocRatio,
			bytesCell(r.OldBytes), bytesCell(r.NewBytes), gate, verdict)
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
		var named []string
		for _, r := range rows {
			if gates := r.failed(); len(gates) > 0 {
				named = append(named, fmt.Sprintf("%s (%s)", r.Name, strings.Join(gates, ", ")))
			}
		}
		return fmt.Errorf("bench-diff: %d headline kernel(s) regressed (ns/op >%.2fx or allocs/op >%.2fx): %s",
			len(regressed), benchRegressLimit, benchAllocLimit, strings.Join(named, "; "))
	}
	fmt.Printf("\nbench-diff: no headline kernel regressed (ns/op >%.2fx or allocs/op >%.2fx)\n", benchRegressLimit, benchAllocLimit)
	return nil
}
