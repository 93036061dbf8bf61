package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
)

// metricDef names one reported metric. The tables below and
// BENCHMARK.json list the same metrics (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports on every workload.
// Each workload has one unit operation (see README.md): the latency
// metric times it, throughput and CPU cost count it. Tail latency is a
// check, not a metric: on a shared 2-vCPU VM the quartile spread of ten
// runs' p99 reached 0.51 of its median on ingest as the hypervisor's
// steal came and went, so no bound of at most 0.25 could hold it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports on every workload; a
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := func(n string) metricDef { return metricDef{n, "ms", "lower"} }
	count := func(n, better string) metricDef { return metricDef{n, "count", better} }
	ratio := func(n, better string) metricDef { return metricDef{n, "ratio", better} }
	defs := []metricDef{
		ms("gateway.create_p50_ms"), ms("gateway.create_tail_ms"),
		ms("gateway.get_p50_ms"), ms("gateway.get_tail_ms"),
		ms("gateway.list_p50_ms"), ms("gateway.list_tail_ms"),
		ms("gateway.patch_p50_ms"), ms("gateway.patch_tail_ms"),
		ms("gateway.advance_p50_ms"), ms("gateway.advance_tail_ms"),
		ms("gateway.conn_wait_p50_ms"), ms("gateway.conn_wait_tail_ms"),
		count("gateway.non2xx", "lower"),
		ms("session.p50_ms"), ms("session.tail_ms"),
		ratio("session.share_of_handler", "lower"),
		count("session.rounds", "lower"), count("session.llm_calls", "lower"),
		count("session.tool_calls", "lower"), count("session.tokens", "lower"),
		ratio("netsim.route_cache_hit_ratio", "higher"), ratio("embed.cache_hit_ratio", "higher"),
		ms("fleet.offer_p50_ms"), ms("fleet.offer_tail_ms"),
		ms("fleet.step_p50_ms"), ms("fleet.step_tail_ms"),
		ms("fleet.lookup_p50_ms"), ms("fleet.lookup_tail_ms"),
		count("fleet.admitted", "higher"), count("fleet.shed", "lower"),
		count("fleet.stolen", "lower"), count("fleet.peak_queue_depth", "lower"),
		ms("journal.append_p50_ms"), ms("journal.append_tail_ms"),
		{"journal.bytes_per_record", "bytes", "lower"}, count("journal.records", "lower"),
		ms("lake.append_p50_ms"), ms("lake.append_tail_ms"),
		{"lake.bytes_per_entry", "bytes", "lower"}, count("lake.entries", "lower"),
		ms("recover.journal_open_ms"), ms("recover.lake_open_ms"), ms("recover.replay_ms"),
		count("recover.reoffered", "lower"),
		count("obs.events_retained", "lower"),
		ratio("gc.cpu_fraction", "lower"), ms("gc.pause_tail_ms"),
		{"runtime.alloc_kb_per_op", "KB", "lower"}, {"heap.peak_mb", "MB", "lower"},
		ms("traced.latency_p50_ms"), {"traced.throughput_per_s", "1/s", "higher"},
		count("trace.spans", "lower"),
	}
	for _, l := range cpuLayers {
		defs = append(defs, ratio(l, "lower"))
	}
	return defs
}()

// scrape is a parsed Prometheus text exposition.
type scrape []promSeries

type promSeries struct {
	name, labels string
	value        float64
}

// parseMetrics parses `name{labels} value` lines, skipping comments.
func parseMetrics(text []byte) scrape {
	var out scrape
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		head := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(head, "{")
		out = append(out, promSeries{name: name, labels: labels, value: v})
	}
	return out
}

// sum adds the series of one metric whose label block contains match.
func (s scrape) sum(name, match string) float64 {
	t := 0.0
	for _, p := range s {
		if p.name == name && strings.Contains(p.labels, match) {
			t += p.value
		}
	}
	return t
}

// deterministicCounters are /metrics series that depend only on the
// tape: identical traced and untraced, and run to run for one seed.
var deterministicCounters = []string{
	"aiops_sessions_total", "aiops_llm_calls_total", "aiops_llm_tokens_total",
	"aiops_tool_invocations_total", "aiops_hypotheses_proposed_total",
	"aiops_cache_hits_total", "aiops_cache_misses_total",
	"aiops_fleet_incidents_total", "aiops_fleet_shed_total", "aiops_fleet_stolen_total",
	"aiops_lake_entries_total", "aiops_journal_records_total",
}

func (s scrape) deterministic() map[string]float64 {
	out := map[string]float64{}
	for _, n := range deterministicCounters {
		out[n] = s.sum(n, "")
	}
	return out
}

// cacheRatio is hits over lookups for one cache label of aiops_cache_*.
func (s scrape) cacheRatio(cache string) float64 {
	m := `cache="` + cache + `"`
	h, miss := s.sum("aiops_cache_hits_total", m), s.sum("aiops_cache_misses_total", m)
	if h+miss == 0 {
		return 0
	}
	return h / (h + miss)
}

// digestJSON is the hex SHA-256 of v's JSON encoding.
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
