package main

import (
	"time"

	"repro/internal/gateway"
	"repro/internal/lake"
)

// runIngest is the durable-ingest workload: the path an operator waits
// on, POST /v1/incidents to its 201 with journal and lake on, through
// every layer — decode, scenario build, session, Offer, lake fsync,
// journal fsync, encode.
//
// Set-up boots a gateway and warms it with unmeasured POSTs. Phase A
// sends POSTs open loop at a fixed rate for two thirds of the run,
// timed as openLoop describes: the latency metric. The gateway
// is then drained; its summary is the output digest. Phase B drives a
// fresh gateway closed loop with every client for the rest of the run:
// the throughput metric. Unit operation: one POST.
func runIngest(e *env) (*result, error) {
	p := e.p
	durA := p.seconds * 2 / 3
	durB := p.seconds - durA
	nA := int(p.ingestRate * durA.Seconds())
	nAB := p.warmup + nA
	tape := ingestTape(e.seed, nAB+int(maxClosedRate*durB.Seconds()))
	res := newResult()

	var st *stack
	var cs []*client
	var adv *advancer
	for r := 0; r < p.setupReps; r++ {
		if st != nil {
			closeClients(cs)
			if err := st.closeAndRemove(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = serve(e.newDir("ingest"), e.tr); err != nil {
			return nil, err
		}
		cs = newClients(st.base, e.clients, e.tr)
		adv = newAdvancer(atMinutes(tape[:nAB]))
		ss, _ := closedLoop(cs, time.Hour, p.warmup, postOp(tape, 0, adv), adv.advance)
		e.count(ss)
		res.setups = append(res.setups, time.Since(t0))
	}

	pr, err := e.probe()
	if err != nil {
		return nil, err
	}
	cpu0, rss := cpuTime(), startRSS()
	ssA := openLoop(cs, nA, p.ingestRate, postOp(tape, p.warmup, adv), adv.advance)
	res.cpuPerOp = ms(cpuTime()-cpu0) / float64(nA)
	res.rssMB = rss.median()
	e.count(ssA)
	checkGenerator(e, res, ssA)
	lat := make([]time.Duration, len(ssA))
	for i, s := range ssA {
		lat[i] = s.lat
	}
	res.lat = msOf(lat)
	res.checks["ingest_p50_ms"] = res.lat.p50()
	res.checks["ingest_"+res.lat.tailName()+"_ms"] = res.lat.tail()

	ackedA := adv.acknowledged()
	sumA, err := cs[0].drain(ackedA)
	if err != nil {
		e.fail(err)
	}
	res.digest = digestJSON(sumA)
	scA, err := cs[0].metrics()
	if err != nil {
		return nil, err
	}
	res.det = scA.deterministic()
	entries := st.dl.Entries()
	if len(entries) != ackedA {
		e.chk.failf("lake holds %d entries for %d acknowledged incidents", len(entries), ackedA)
	}
	res.lakeEvents = map[string]int{}
	for _, en := range entries {
		res.lakeEvents[en.ID] = len(en.Events)
	}
	res.layers["obs.events_retained"] = float64(len(st.sink.Events()))
	closeClients(cs)
	if err := st.closeAndRemove(); err != nil {
		return nil, err
	}

	stB, err := serve(e.newDir("ingest-b"), e.tr)
	if err != nil {
		return nil, err
	}
	csB := newClients(stB.base, e.clients, e.tr)
	tapeB := tape[nAB:]
	advB := newAdvancer(atMinutes(tapeB))
	ssB, elapsed := closedLoop(csB, durB, len(tapeB), postOp(tapeB, 0, advB), advB.advance)
	e.count(ssB)
	okB := advB.acknowledged()
	res.tput = float64(okB) / elapsed.Seconds()
	res.checks["ingest_sat_rps"] = res.tput
	sumB, err := csB[0].drain(okB)
	if err != nil {
		e.fail(err)
	}
	scB, err := csB[0].metrics()
	if err != nil {
		return nil, err
	}
	closeClients(csB)
	if err := stB.closeAndRemove(); err != nil {
		return nil, err
	}

	if pr != nil {
		if err := pr.finish(int64(nA+len(ssB)), res.layers); err != nil {
			return nil, err
		}
		scrapeLayers([]scrape{scA, scB}, res.layers)
		drainLayers([]gateway.DrainSummary{sumA, sumB}, res.layers)
		if err := timeAppends(e, firstN(entries, p.appends), res.layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// postOp POSTs tape[off+i] as operation i and acknowledges it to adv.
func postOp(tape []arrival, off int, adv *advancer) func(c *client, i int) error {
	return func(c *client, i int) error {
		err := c.post(tape[off+i])
		if err == nil {
			adv.ack(off + i)
		}
		return err
	}
}

func atMinutes(tape []arrival) []float64 {
	at := make([]float64, len(tape))
	for i, a := range tape {
		at[i] = a.AtMin
	}
	return at
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func firstN(entries []lake.Entry, n int) []lake.Entry {
	return entries[:min(n, len(entries))]
}
