package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/parallel"
	"repro/internal/scenarios"
)

// regions are the fleet regions the gateway workloads configure, as in
// `aiopsd -regions r0,r1,r2,r3 -steal`.
var regions = []string{"r0", "r1", "r2", "r3"}

// arrivalsPerHourPerRegion sets the simulated arrival process: the
// stealing regime of E17 (3 responders per region saturate near 5/h).
const arrivalsPerHourPerRegion = 2

// arrival is one POST /v1/incidents on a tape.
type arrival struct {
	ID       string  `json:"id"`
	Scenario string  `json:"scenario"`
	Region   string  `json:"region"`
	AtMin    float64 `json:"opened_at_minutes"`
}

// arrivalGen draws arrivals over scenarios.All() and the regions, with
// Poisson opened_at times at 2 arrivals per hour per region. Scenarios
// and regions come in shuffled blocks — every aligned run of 10
// arrivals holds each scenario once — so even a store of a hundred
// incidents carries the same mix for every seed; the seed moves order
// and timing, not how much work the mix is.
type arrivalGen struct {
	rng            *rand.Rand
	prefix         string
	n              int
	now            time.Duration
	mix            []scenarios.Scenario
	scens, regions []int
}

func newArrivalGen(rng *rand.Rand, prefix string) *arrivalGen {
	return &arrivalGen{rng: rng, prefix: prefix, mix: scenarios.All()}
}

func (g *arrivalGen) next() arrival {
	if len(g.scens) == 0 {
		g.scens = g.rng.Perm(len(g.mix))
	}
	if len(g.regions) == 0 {
		g.regions = g.rng.Perm(len(regions))
	}
	rate := float64(arrivalsPerHourPerRegion * len(regions))
	g.now += time.Duration(g.rng.ExpFloat64() / rate * float64(time.Hour))
	a := arrival{
		ID:       fmt.Sprintf("%s-%06d", g.prefix, g.n),
		Scenario: g.mix[g.scens[0]].Name(),
		Region:   regions[g.regions[0]],
		AtMin:    g.now.Minutes(),
	}
	g.scens, g.regions = g.scens[1:], g.regions[1:]
	g.n++
	return a
}

// ingestTape is the ingest workload's input: n arrivals in opened_at
// order.
func ingestTape(seed int64, n int) []arrival {
	g := newArrivalGen(rand.New(rand.NewSource(seed)), "in")
	tape := make([]arrival, n)
	for i := range tape {
		tape[i] = g.next()
	}
	return tape
}

// opKind is one request type of the mixed workload.
type opKind string

const (
	opGet   opKind = "get"
	opList  opKind = "list"
	opPatch opKind = "patch"
	opPost  opKind = "post"
)

// mixedOp is one request on the mixed tape.
type mixedOp struct {
	Kind opKind `json:"kind"`
	// Target indexes the preloaded incidents (get, patch).
	Target int `json:"target,omitempty"`
	// Region filters a list; empty lists every region.
	Region string `json:"region,omitempty"`
	// Post indexes the tape's POST arrivals.
	Post int `json:"post,omitempty"`
}

// mixedTape is the mixed workload's input: preload arrivals, the
// preloaded incidents to resolve — the same number of every scenario —
// and the operation stream: 80% GET by id, 10% list (limit 50, random
// region filter), 5% PATCH note, 5% POST.
type mixedTape struct {
	Preload []arrival `json:"preload"`
	Resolve []int     `json:"resolve"`
	Ops     []mixedOp `json:"ops"`
	Posts   []arrival `json:"posts"`
}

func newMixedTape(seed int64, preload, resolve, ops int) *mixedTape {
	rng := rand.New(rand.NewSource(seed))
	g := newArrivalGen(rng, "mx")
	t := &mixedTape{Preload: make([]arrival, preload)}
	for i := range t.Preload {
		t.Preload[i] = g.next()
	}
	byScenario := map[string][]int{}
	for i, a := range t.Preload {
		byScenario[a.Scenario] = append(byScenario[a.Scenario], i)
	}
	for _, sc := range scenarios.All() {
		group := byScenario[sc.Name()]
		for _, k := range rng.Perm(len(group))[:min(resolve/len(g.mix), len(group))] {
			t.Resolve = append(t.Resolve, group[k])
		}
	}
	rng.Shuffle(len(t.Resolve), func(i, j int) { t.Resolve[i], t.Resolve[j] = t.Resolve[j], t.Resolve[i] })
	t.Ops = make([]mixedOp, ops)
	for i := range t.Ops {
		switch r := rng.Intn(100); {
		case r < 80:
			t.Ops[i] = mixedOp{Kind: opGet, Target: rng.Intn(preload)}
		case r < 90:
			op := mixedOp{Kind: opList}
			if k := rng.Intn(len(regions) + 1); k < len(regions) {
				op.Region = regions[k]
			}
			t.Ops[i] = op
		case r < 95:
			t.Ops[i] = mixedOp{Kind: opPatch, Target: rng.Intn(preload)}
		default:
			t.Ops[i] = mixedOp{Kind: opPost, Post: len(t.Posts)}
			t.Posts = append(t.Posts, g.next())
		}
	}
	return t
}

// sessionSpec is one batch session: a scenario, its seed, and which of
// the three runners handles it.
type sessionSpec struct {
	Scenario int   `json:"scenario"`
	Seed     int64 `json:"seed"`
	Runner   int   `json:"runner"`
}

// sessionAt derives session i of the sessions workload from the seed
// alone, so batches of any size and order replay the same sessions.
func sessionAt(seed int64, i int) sessionSpec {
	s := parallel.DeriveSeed(seed, i)
	rng := rand.New(rand.NewSource(s))
	return sessionSpec{Scenario: rng.Intn(len(scenarios.All())), Seed: rng.Int63(), Runner: i % 3}
}
