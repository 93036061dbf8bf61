package experiments

// E15 — gateway load ladder over live HTTP (extension): E14 measures
// the fleet scheduler's saturation knee by calling fleet.Simulate
// directly; E15 measures the same knee end-to-end through the service
// surface. Each cell boots a real gateway (internal/gateway, the same
// stack cmd/aiopsd serves) on a loopback TCP socket with a simulated
// clock, drives it with a pool of synthetic HTTP clients (reusing
// internal/parallel as the client pool), then drains the scheduler over
// the socket and reads the ladder row out of the drain summary JSON.
//
// The ladder exercises every live-mode moving part at once: API-key
// auth, strict JSON decoding, scenario normalization, sessions running
// in handler goroutines, the (At, ID)-ordered pending set, admission
// control and the drain path. Because arrivals carry explicit
// simulated-clock timestamps and client-supplied IDs, the summary is a
// pure function of (seed, trials): byte-identical at ANY client
// concurrency (-workers), which is the repo's determinism contract
// pushed through a real network socket.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/scenarios"
)

// e15Rates reuses E14's offered-load ladder so the two experiments'
// knees are directly comparable: same rungs, direct call vs through
// the socket.
var e15Rates = e14Rates

// e15Key authenticates the synthetic load clients.
const e15Key = "e15-loadgen-key"

// e15Arrival is one pre-drawn client request.
type e15Arrival struct {
	id       string
	scenario string
	atMin    float64
}

// e15Tape pre-draws the arrival tape serially from the seed — Poisson
// gaps and scenario draws exactly like fleet.Simulate's phase 1. The
// tape (not submission order) is what determines the schedule: every
// arrival carries its simulated timestamp and ID in the payload.
func e15Tape(rate float64, n int, seed int64) []e15Arrival {
	rng := randsrc.New(seed)
	mix := scenarios.All()
	tape := make([]e15Arrival, n)
	var now time.Duration
	for i := 0; i < n; i++ {
		now += time.Duration(rng.ExpFloat64() / rate * float64(time.Hour))
		tape[i] = e15Arrival{
			id:       fmt.Sprintf("ld-%04d", i),
			scenario: mix[rng.Intn(len(mix))].Name(),
			atMin:    now.Minutes(),
		}
	}
	return tape
}

// e15Cell runs one (rate, arm) cell: boot a gateway on a loopback
// socket, submit the whole tape from the parallel client pool, drain
// over the socket, return the drain summary.
func e15Cell(rate float64, p Params, r harness.Runner) (gateway.DrainSummary, error) {
	n := p.Trials * 4
	seed := p.Seed + 151 // same arrivals per rung across arms: paired comparison
	tape := e15Tape(rate, n, seed)

	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		OCEs: 2, QueueLimit: 8,
		Obs: p.Obs, RunnerName: r.Name(),
	})
	gw := gateway.NewServer(gateway.Config{
		Keys:  map[string]string{e15Key: "loadgen"},
		Clock: gateway.NewSimClock(),
		Sched: sched, Runner: r, Seed: seed,
		Sink: p.Obs, SimControl: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return gateway.DrainSummary{}, fmt.Errorf("e15: listen: %w", err)
	}
	hs := &http.Server{Handler: gw.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	// The synthetic client pool: each trial is one POST, sessions run
	// server-side in the handler goroutines, so -workers is exactly the
	// end-to-end client concurrency.
	trials := parallel.RunTrials(n, p.Workers, seed, func(_ int64, i int) error {
		a := tape[i]
		body, err := json.Marshal(map[string]any{
			"id": a.id, "scenario": a.scenario, "opened_at_minutes": a.atMin,
		})
		if err != nil {
			return err
		}
		return e15Post(client, base+"/v1/incidents", body, http.StatusCreated, nil)
	})
	for _, tr := range trials {
		if tr.Err != nil {
			return gateway.DrainSummary{}, fmt.Errorf("e15: client crashed: %v", tr.Err)
		}
		if tr.Value != nil {
			return gateway.DrainSummary{}, fmt.Errorf("e15: %w", tr.Value)
		}
	}

	var sum gateway.DrainSummary
	if err := e15Post(client, base+"/v1/sim/drain", nil, http.StatusOK, &sum); err != nil {
		return gateway.DrainSummary{}, fmt.Errorf("e15: drain: %w", err)
	}
	return sum, nil
}

// e15Post sends one authenticated POST, checks the status, and
// optionally decodes the response body into out.
func e15Post(client *http.Client, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-API-Key", e15Key)
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: HTTP %d (want %d): %s", url, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// E15GatewayLoad sweeps offered load through the live gateway and
// tabulates the same ladder and knee as E14 — measured through a real
// socket instead of a direct Simulate call.
func E15GatewayLoad(p Params) []*eval.Table {
	p = p.withDefaults()
	kbase := currentKB()
	fseed := p.FaultSeed
	if fseed == 0 {
		fseed = 1337
	}
	var fc faults.Config
	if p.FaultRate > 0 {
		fc = faults.Config{Rate: p.FaultRate, ActionRate: p.FaultRate / 2, Degrade: 0.5, Seed: fseed}
	}
	resilientCfg := core.DefaultConfig()
	resilientCfg.Resilience = core.DefaultResilience()

	arms := []harness.Runner{
		&harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: resilientCfg, Faults: fc},
		&harness.HelperRunner{Label: "naive-helper", KBase: kbase, Config: core.DefaultConfig(), Faults: fc},
		&harness.ControlRunner{Label: "unassisted-oce", KBase: kbase, Faults: fc},
	}
	if p.Naive {
		arms = arms[1:]
	}

	// Cells run serially: each cell is already parallel inside (the
	// HTTP client pool), and serial cells keep the shared sink's event
	// order deterministic, exactly as E14 does.
	ladder := eval.NewTable("E15 (extension): gateway load ladder — E14's sweep driven end-to-end over live HTTP (cmd/aiopsd service surface), 2 OCEs, queue bound 8",
		"arrivals/h", "arm", "shed", "meanQueue(m)", "p50Res(m)", "p99Res(m)", "mitigated", "util")
	sums := make(map[string][]gateway.DrainSummary, len(arms))
	for _, rate := range e15Rates {
		for _, arm := range arms {
			sum, err := e15Cell(rate, p, arm)
			if err != nil {
				// A cell failure is a harness bug (socket, HTTP, decode),
				// not a measurement: fail loudly rather than tabulate it.
				panic(err)
			}
			sums[arm.Name()] = append(sums[arm.Name()], sum)
			ladder.AddRow(rate, arm.Name(), fmt.Sprintf("%d/%d", sum.Shed, sum.Incidents),
				sum.MeanQueueMinutes, sum.P50ResolutionMinutes, sum.P99ResolutionMinutes,
				eval.Pct(sum.MitigatedRate), fmt.Sprintf("%.2f", sum.Utilization))
		}
	}

	knee := eval.NewTable(fmt.Sprintf("E15: saturation knee over HTTP — highest load with zero shedding and P99 resolution under %.0fm", e14KneeP99.Minutes()),
		"arm", "knee(arr/h)", "p99Res at knee(m)")
	for _, arm := range arms {
		rate, sum := e15Knee(sums[arm.Name()])
		if sum == nil {
			knee.AddRow(arm.Name(), "none", "-")
			continue
		}
		knee.AddRow(arm.Name(), rate, sum.P99ResolutionMinutes)
	}
	return []*eval.Table{ladder, knee}
}

// e15Knee returns the highest ladder rung (and its summary) an arm
// sustained — zero shedding, P99 resolution under the E14 bound — or
// (0, nil) when even the lowest rung saturated.
func e15Knee(sums []gateway.DrainSummary) (float64, *gateway.DrainSummary) {
	rate, best := 0.0, (*gateway.DrainSummary)(nil)
	for i := range sums {
		if sums[i].Shed == 0 && sums[i].P99ResolutionMinutes <= e14KneeP99.Minutes() {
			rate, best = e15Rates[i], &sums[i]
		}
	}
	return rate, best
}
