package netsim_test

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/scenarios"
)

// Steady-state allocation gates for the SoA traffic engine: once warm, a
// recompute of an unchanged world and a per-tick demand redistribution
// must both be completely allocation-free. Any map churn, slab
// reallocation, or key-string construction creeping back into the hot
// path fails these immediately.

func TestWarmRecomputeAllocFree(t *testing.T) {
	if !netsim.RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	w := scenarios.StandardWorld()
	w.Invalidate()
	w.Recompute()
	avg := testing.AllocsPerRun(50, func() {
		w.Invalidate()
		w.Recompute()
	})
	if avg != 0 {
		t.Fatalf("warm Recompute allocates %.1f objects/op, want 0", avg)
	}
}

func TestDemandRedistributionAllocFree(t *testing.T) {
	if !netsim.RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	w := scenarios.StandardWorld()
	flows := w.Flows()
	if len(flows) < 2 {
		t.Fatal("standard world has too few flows")
	}
	f1, f2 := flows[0], flows[len(flows)/2]
	base1, base2 := f1.DemandGbps, f2.DemandGbps
	// Warm: one redistribution builds the reverse index and sizes the
	// dirty-link scratch.
	f1.DemandGbps = base1 * 1.5
	w.Invalidate()
	w.Recompute()
	i := 0
	avg := testing.AllocsPerRun(50, func() {
		i++
		// Alternate two demand patterns so every run is a real delta.
		if i%2 == 0 {
			f1.DemandGbps, f2.DemandGbps = base1, base2
		} else {
			f1.DemandGbps, f2.DemandGbps = base1*1.5, base2*0.5
		}
		w.Invalidate()
		w.Recompute()
	})
	if avg != 0 {
		t.Fatalf("per-tick demand redistribution allocates %.1f objects/op, want 0", avg)
	}
}

// A direct RouteDAGFor compute allocates only its result: the DAG, its
// dense arrays and the distance field copy. The count is pinned so an
// extra per-build structure (a map mirror, say) fails here at once.
func TestRouteDAGForAllocs(t *testing.T) {
	w := scenarios.StandardWorld()
	const src, dst = netsim.NodeID("us-east-host-p0-t0-h0"), netsim.NodeID("eu-north-host-p0-t0-h0")
	if netsim.RouteDAGFor(w.Net, src, dst, nil) == nil {
		t.Fatal("no DAG")
	}
	avg := testing.AllocsPerRun(50, func() {
		netsim.RouteDAGFor(w.Net, src, dst, nil)
	})
	if avg > 7 {
		t.Fatalf("RouteDAGFor allocates %.1f objects/op, want at most 7", avg)
	}
}

// A copy's first recompute starts warm from its source's engine. The
// bounds sit just above today's counts (83 for a fork of the standard
// world plus its first recompute, 63 for a what-if clone plus
// recompute); a cold first pass, which resets every slab and re-runs
// every flow's programs, reads 106 and 86.
func TestForkRecomputeAllocs(t *testing.T) {
	if !netsim.RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	scenarios.StandardWorld().Recompute()
	avg := testing.AllocsPerRun(50, func() { scenarios.StandardWorld().Recompute() })
	if avg > 85 {
		t.Fatalf("fork + first Recompute allocates %.1f objects/op, want at most 85", avg)
	}
}

func TestCloneRecomputeAllocs(t *testing.T) {
	if !netsim.RouteCacheEnabled() {
		t.Skip("route cache disabled")
	}
	w := scenarios.StandardWorld()
	w.Recompute()
	avg := testing.AllocsPerRun(50, func() { w.Clone().Recompute() })
	if avg > 65 {
		t.Fatalf("Clone + Recompute allocates %.1f objects/op, want at most 65", avg)
	}
}

// TestMutNodeOnCloneAllocs pins the copy-on-write cost of the first
// write to a node of a clone: the clone, its private node map, the
// node's copy with its protocol set, and the clone's ownership set.
// A node copy carries no other map.
func TestMutNodeOnCloneAllocs(t *testing.T) {
	w := scenarios.StandardWorld()
	id := w.Net.Nodes()[0].ID
	avg := testing.AllocsPerRun(50, func() { w.Net.Clone().MutNode(id).Healthy = false })
	if avg > 9 {
		t.Fatalf("Clone + MutNode allocates %.1f objects/op, want at most 9", avg)
	}
}
