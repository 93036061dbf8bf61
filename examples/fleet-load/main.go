// Fleet load: the fleet-level consequence of per-incident TTM (extension
// experiment E10). Two on-call engineers field a Poisson stream of
// incidents; what customers experience is queueing delay plus time to
// mitigation. The assisted pool saturates at a far higher arrival rate.
//
// Run with:
//
//	go run ./examples/fleet-load
package main

import (
	"fmt"

	"repro"
	"repro/internal/eval"
)

func main() {
	sys := aiops.New(aiops.WithSeed(4))

	t := eval.NewTable("fleet of 2 OCEs, 60 incidents per point",
		"arrivals/h", "arm", "meanQueue(m)", "meanTotal(m)", "p95Total(m)", "utilization")
	for _, rate := range []float64{1, 3, 6} {
		a := sys.Fleet(2, rate, 60, 7)
		c := sys.FleetUnassisted(2, rate, 60, 7)
		t.AddRow(rate, "assisted", a.MeanQueue.Minutes(), a.MeanResolution.Minutes(), a.P95Resolution.Minutes(), fmt.Sprintf("%.2f", a.Utilization))
		t.AddRow(rate, "control", c.MeanQueue.Minutes(), c.MeanResolution.Minutes(), c.P95Resolution.Minutes(), fmt.Sprintf("%.2f", c.Utilization))
	}
	fmt.Println(t)
	fmt.Println("The gap between arms grows super-linearly with load: faster")
	fmt.Println("per-incident mitigation buys back queueing delay across the fleet.")
}
