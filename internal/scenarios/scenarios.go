// Package scenarios is the incident scenario library: parameterized
// generators that install fault scripts into a fresh simulated world and
// emit the corresponding incident report with ground truth.
//
// The library covers the incident classes the paper's argument is built
// around — routine single-cause incidents (device failures, gray links,
// congestion, monitoring false alarms), the deep Casc-1 configuration
// cascade from Google's postmortem corpus (Fig. 2), and the AWS Direct
// Connect Tokyo novel-protocol incident (Fig. 3).
package scenarios

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/incident"
	"repro/internal/mitigation"
	"repro/internal/netsim"
	"repro/internal/telemetry"
)

// Scenario generates one incident class.
type Scenario interface {
	// Name identifies the scenario class.
	Name() string
	// RootCauseClass is the ground-truth root cause concept.
	RootCauseClass() string
	// Build constructs a fresh world, installs the fault script, and
	// returns the world plus the incident as reported at detection time.
	Build(rng *rand.Rand) *Instance
}

// Instance is one generated incident: the live world and the report.
type Instance struct {
	World    *netsim.World
	Incident *incident.Incident
	Scenario Scenario
}

// Succeeded reports whether the incident is genuinely mitigated: the
// applied actions satisfy the ground truth AND the world verifies clean.
// Both matter — the right plan badly bound fails verification, and a
// wrong plan that happens to quiet one signal fails the ground truth.
func (in *Instance) Succeeded(applied mitigation.Plan) bool {
	if !in.Incident.Truth.MitigationCorrect(applied) {
		return false
	}
	v := &mitigation.Verifier{World: in.World}
	return v.Mitigated()
}

// StandardWorld returns the repository's canonical deployment: three
// regions of Clos fabric, the B2/B4 dual WAN with a (buggy, as shipped)
// traffic controller, healthy prefix announcements, and a service mix —
// inter-region bulk-transfer, per-region web meshes, storage replication,
// and a latency-sensitive directconnect customer tunnel.
//
// The world is built once per process (per route-cache setting, since
// the cache's contents depend on it) and every call
// returns an independent fork of that template, observationally
// identical to a fresh build (see netsim.World.Fork).
func StandardWorld() *netsim.World {
	if freshWorlds.Load() {
		return buildStandardWorld()
	}
	return standardTemplate().Fork()
}

// standardTemplate returns the template for the current route-cache
// setting, building it on first use. It is shared before anyone forks
// it, so forks only read it.
func standardTemplate() *netsim.World {
	t := &standardTemplates[0]
	if netsim.RouteCacheEnabled() {
		t = &standardTemplates[1]
	}
	t.once.Do(func() {
		t.w = buildStandardWorld()
		t.w.Net.Share()
	})
	return t.w
}

// standardTemplates holds the standard world template per route-cache
// setting (index 1: cache on). Templates are never mutated once built.
var standardTemplates [2]struct {
	once sync.Once
	w    *netsim.World
}

// freshWorlds makes StandardWorld build from scratch instead of
// forking; only the fork-versus-fresh differential tests set it.
var freshWorlds atomic.Bool

// buildStandardWorld builds the standard world from scratch.
func buildStandardWorld() *netsim.World {
	n := netsim.NewNetwork()
	bb := netsim.BuildBackbone(n, netsim.DefaultBackboneConfig())
	ctlNode := n.AddNode(netsim.Node{ID: "traffic-controller", Kind: netsim.KindController, Region: "us-east", Pod: -1})
	ctl := netsim.NewController(ctlNode.ID, []string{"B4", "B2"})
	w := netsim.NewWorld(n, ctl, bb)

	for i, region := range bb.Regions {
		prefix := fmt.Sprintf("10.%d.0.0/16", i)
		for _, wan := range bb.WANNames {
			ctl.Announce(netsim.PrefixAnnouncement{Prefix: prefix, WAN: wan, Cluster: region})
		}
	}

	// Inter-region bulk between one spine per region: rides B4, would
	// overload B2 (200G inter links) on failover.
	var spines []netsim.NodeID
	for _, region := range bb.Regions {
		spines = append(spines, netsim.NodeID(region+"-spine-0"))
	}
	w.AddFlows(netsim.UniformMeshFlows(spines, 300, "bulk-transfer")...)

	// Per-region web mesh across pods 0..2 (cross-pod paths exercise
	// ToRs, aggs and spines).
	for _, region := range bb.Regions {
		var hosts []netsim.NodeID
		for p := 0; p < 3; p++ {
			hosts = append(hosts, netsim.NodeID(fmt.Sprintf("%s-host-p%d-t0-h0", region, p)))
		}
		for _, f := range netsim.UniformMeshFlows(hosts, 8, "web") {
			f.ID = region + ":" + f.ID
			w.AddFlows(f)
		}
	}

	// Storage replication: pod 3 to pod 0 within each region.
	for _, region := range bb.Regions {
		w.AddFlows(&netsim.Flow{
			ID:  region + ":storage-repl",
			Src: netsim.NodeID(region + "-host-p3-t0-h0"), Dst: netsim.NodeID(region + "-host-p0-t1-h0"),
			DemandGbps: 6, Service: "storage",
		})
	}

	// Latency-sensitive customer tunnel across regions.
	w.AddFlows(&netsim.Flow{
		ID:  "directconnect:cust-1",
		Src: "us-east-host-p0-t0-h1", Dst: "eu-north-host-p0-t0-h1",
		DemandGbps: 5, Service: "directconnect",
		Attrs: map[string]string{"customer": "tenant-42"},
	})

	w.SnapshotBaselines()
	telemetry.AttachRecorder(w, 2*time.Minute)
	return w
}

// detect advances the clock to detection, computes traffic, runs the
// alert engine and assembles the incident.
func detect(w *netsim.World, rng *rand.Rand, id, title, summary string, truth *incident.GroundTruth) *incident.Incident {
	// Paging is not instant: detection lag of 2-6 minutes.
	w.Clock.Advance(time.Duration(2+rng.Intn(5)) * time.Minute)
	w.Recompute()
	alerts := telemetry.NewAlertEngine(w).Evaluate()
	sev := int(netsim.SevWarning)
	for _, a := range alerts {
		if int(a.Severity) > sev {
			sev = int(a.Severity)
		}
	}
	return incident.New(id, title, summary, sev, w.Clock.Now(), alerts, truth)
}

// pick returns a random element of xs.
func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var regions = []string{"us-east", "us-west", "eu-north"}

// All returns one instance of every scenario class in the library, in a
// fixed order. Workload mixes sample from this set.
func All() []Scenario {
	return []Scenario{
		&DeviceFailure{},
		&GrayLink{},
		&Congestion{},
		&FalseAlarm{},
		&Cascade{Stage: 3},
		&Cascade{Stage: 4},
		&Cascade{Stage: 5},
		&NovelProtocol{},
		&MaintenanceOverlap{},
		&GrayLinkFlapping{},
	}
}

// ByName returns the scenario with the given name, or nil.
func ByName(name string) Scenario {
	for _, s := range All() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// Routine returns the non-novel, non-cascade classes — the "incidents
// similar to those resolved in the past" that one-shot predictors handle
// well, per the paper.
func Routine() []Scenario {
	return []Scenario{&DeviceFailure{}, &GrayLink{}, &Congestion{}, &FalseAlarm{}}
}
