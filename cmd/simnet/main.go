// Command simnet inspects a simulated deployment: build a scenario's
// world (or the healthy standard world) and interrogate it with the
// telemetry query DSL.
//
// Usage:
//
//	simnet -q "links where util > 0.9 order by util desc limit 5"
//	simnet -scenario cascade-5 -q "services where loss > 0.01"
//	simnet -scenario novel-protocol -q "devices where healthy = false"
//	simnet -scenario maintenance-overlap -summary
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/query"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
	"repro/internal/telemetry"
)

func main() {
	var (
		scenario = flag.String("scenario", "", "incident class to install (empty = healthy world)")
		seed     = flag.Int64("seed", 1, "random seed")
		q        = flag.String("q", "", "query in the telemetry DSL")
		summary  = flag.Bool("summary", false, "print a deployment summary")
	)
	flag.Parse()

	var w *netsim.World
	if *scenario == "" {
		w = scenarios.StandardWorld()
	} else {
		sc := scenarios.ByName(*scenario)
		if sc == nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q\n", *scenario)
			os.Exit(1)
		}
		in := sc.Build(randsrc.New(*seed))
		w = in.World
		fmt.Println("incident:", in.Incident.Title)
	}

	if *summary || *q == "" {
		rep := w.Report()
		fmt.Printf("deployment: %d nodes, %d links, %d flows\n", w.Net.NumNodes(), w.Net.NumLinks(), len(w.Flows()))
		fmt.Printf("overall loss: %.2f%%\n", rep.OverallLossRate()*100)
		for _, a := range telemetry.NewAlertEngine(w).Evaluate() {
			fmt.Println("alert:", a)
		}
		if *q == "" {
			return
		}
	}

	parsed, err := query.Parse(*q)
	if err == nil {
		err = query.Verify(parsed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rows, err := query.Execute(parsed, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s -> %d rows\n", parsed, len(rows))
	for _, r := range rows {
		fmt.Println("  ", r)
	}
}
