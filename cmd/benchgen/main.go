// Command benchgen regenerates every experiment table in DESIGN.md's
// per-experiment index (E1-E18): the reproduction's equivalent of the
// paper's figures and the §3 evaluation methodology.
//
// Usage:
//
//	benchgen                 # all experiments
//	benchgen -exp e2,e3      # a subset (bare numbers work too: -exp 2,3)
//	benchgen -trials 30      # bigger cells
//	benchgen -exp e13 -faultrate 0.4   # robustness ladder up to 40% fault rate
//	benchgen -exp 14         # fleet-scheduler offered-load ladder
//	benchgen -exp 15         # same ladder driven end-to-end over live HTTP
//	benchgen -exp 16         # crash-safety chaos: kill/restart + faulty clients
//	benchgen -exp 17         # sharded multi-region fleet: storms + work stealing
//	benchgen -exp 18         # adaptive loop over the data lake
//	benchgen -exp e4 -trace-out events.jsonl -metrics-out metrics.prom
//	benchgen -bench-json BENCH_$(date +%F).json           # performance snapshot
//	benchgen -bench-json BENCH_nocache.json -nocache      # slow-path snapshot
//	benchgen -bench-diff OLD.json NEW.json   # ratio table; exit 1 on >20% kernel regression
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids (e1..e18; a bare number means the same experiment) or 'all'")
		trials    = flag.Int("trials", 20, "incidents per experiment cell")
		html      = flag.String("html", "", "also write a self-contained HTML report to this path")
		benchJSON = flag.String("bench-json", "", "run the kernel table (E1-E18 + substrate kernels) and write {name, ns/op, allocs/op, headline} records to this JSON path instead of generating tables")
		benchDiff = flag.Bool("bench-diff", false, "compare two -bench-json snapshots (args: OLD.json NEW.json); prints a per-kernel ns/op and allocs/op ratio table and exits nonzero when a headline kernel regresses >20%")
	)
	c := cliflags.Register(flag.CommandLine, 42)
	flag.Parse()
	c.MustValidate()
	c.StartPProf()
	c.ApplyCaches()

	if *benchDiff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchgen -bench-diff OLD.json NEW.json")
			os.Exit(2)
		}
		if err := runBenchDiff(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, !c.NoCache, kernels.Table); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id != "" && id[0] >= '0' && id[0] <= '9' {
				id = "e" + id // -exp 14 means -exp e14
			}
			want[id] = true
		}
	}
	p := experiments.Params{
		Trials: *trials, Seed: c.Seed, Workers: c.Workers,
		FaultRate: c.FaultRate, FaultSeed: c.FaultSeed, Naive: c.Naive,
		Obs: c.Sink(),
	}
	report := eval.NewHTMLReport("AI-driven Network Incident Management — experiment tables", c.Seed, *trials)
	ran := 0
	for _, e := range experiments.Registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		ran++
		section := eval.HTMLSection{Heading: e.ID + ": " + e.Desc}
		section.Pre, section.Tables = e.Render(os.Stdout, p)
		report.Sections = append(report.Sections, section)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *exp)
		os.Exit(1)
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := report.WriteHTML(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *html)
	}
	c.MustExport()
}
