package main

import (
	"errors"
	"os"
	"time"

	"repro/internal/gateway"
	"repro/internal/journal"
	"repro/internal/lake"
)

// tracerLayers adds the span-derived layer metrics.
func tracerLayers(tr *tracer, layers map[string]float64) {
	timed := func(layer, metric string) {
		d := newDist(tr.layer(layer).durs)
		layers[metric+"_p50_ms"] = d.p50()
		layers[metric+"_tail_ms"] = d.tail()
	}
	for _, route := range []string{"create", "get", "list", "patch", "advance"} {
		timed("gateway."+route, "gateway."+route)
	}
	timed("gateway.conn_wait", "gateway.conn_wait")
	timed("fleet.offer", "fleet.offer")
	timed("fleet.step", "fleet.step")
	timed("fleet.lookup", "fleet.lookup")
	sess := newDist(tr.layer("session").durs)
	layers["session.p50_ms"] = sess.p50()
	layers["session.tail_ms"] = sess.tail()
	if h := tr.layer("gateway.create").total; h > 0 {
		layers["session.share_of_handler"] = float64(tr.layer("session").total) / float64(h)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	layers["gateway.non2xx"] = float64(tr.non2xx)
	if n := float64(tr.sessions); n > 0 {
		layers["session.rounds"] = float64(tr.rounds) / n
		layers["session.llm_calls"] = float64(tr.llmCalls) / n
		layers["session.tool_calls"] = float64(tr.toolCalls) / n
		layers["session.tokens"] = float64(tr.tokens) / n
	}
	n := 0
	for _, l := range tr.layers {
		n += len(l.durs)
	}
	layers["trace.spans"] = float64(n)
}

// scrapeLayers adds the layer metrics read from the gateway's /metrics
// scrapes.
func scrapeLayers(scrapes []scrape, layers map[string]float64) {
	var all scrape
	for _, s := range scrapes {
		all = append(all, s...)
	}
	layers["netsim.route_cache_hit_ratio"] = all.cacheRatio("route")
	layers["embed.cache_hit_ratio"] = all.cacheRatio("embed")
	layers["journal.records"] = all.sum("aiops_journal_records_total", "")
	layers["lake.entries"] = all.sum("aiops_lake_entries_total", "")
}

// drainLayers adds the fleet counters of drain summaries.
func drainLayers(sums []gateway.DrainSummary, layers map[string]float64) {
	for _, s := range sums {
		layers["fleet.admitted"] += float64(s.Admitted)
		layers["fleet.shed"] += float64(s.Shed)
		layers["fleet.stolen"] += float64(s.Stolen)
		layers["fleet.peak_queue_depth"] = max(layers["fleet.peak_queue_depth"], float64(s.PeakQueueDepth))
	}
}

// timeAppends times direct appends to a scratch journal and lake: for
// each lake entry the run produced, the accepted record the gateway
// journals for it, then the entry itself. The gateway's own appends run
// inside its handlers, where no decorator can reach them.
func timeAppends(e *env, entries []lake.Entry, layers map[string]float64) error {
	dir := e.newDir("appends")
	jr, _, err := journal.Open(dir)
	if err != nil {
		return err
	}
	dl, _, err := lake.Open(dir)
	if err != nil {
		jr.Close()
		return err
	}
	var jd, ld []time.Duration
	var jb, lb int
	for i, en := range entries {
		sev := en.Severity
		rec := journal.Record{
			Kind: journal.KindAccepted, ID: en.ID, AtMinutes: float64(i),
			Scenario: en.Scenario, Severity: &sev, Title: en.Scenario,
			ReportedBy: "local-dev", OpenedAtMinutes: float64(i), Region: en.Region,
		}
		var n int
		var aerr error
		jd = append(jd, e.tr.span("journal.append", en.ID, func() { n, aerr = jr.Append(rec) }))
		if aerr != nil {
			err = aerr
			break
		}
		jb += n
		ld = append(ld, e.tr.span("lake.append", en.ID, func() { n, aerr = dl.Append(en) }))
		if aerr != nil {
			err = aerr
			break
		}
		lb += n
	}
	err = errors.Join(err, jr.Close(), dl.Close(), os.RemoveAll(dir))
	if len(jd) > 0 && len(ld) > 0 {
		j, l := msOf(jd), msOf(ld)
		layers["journal.append_p50_ms"], layers["journal.append_tail_ms"] = j.p50(), j.tail()
		layers["lake.append_p50_ms"], layers["lake.append_tail_ms"] = l.p50(), l.tail()
		layers["journal.bytes_per_record"] = float64(jb) / float64(len(jd))
		layers["lake.bytes_per_entry"] = float64(lb) / float64(len(ld))
	}
	return err
}
