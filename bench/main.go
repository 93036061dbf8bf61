// Command bench is the repository's benchmark: one workload per
// process, its inputs generated from --seed, its outputs checked, and
// one JSON result line printed last.
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) reports per-layer metrics and writes its spans to
// --trace-dir. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*result, error){
	"ingest":   runIngest,
	"mixed":    runMixed,
	"recover":  runRecover,
	"sessions": runSessions,
	"fleet":    runFleet,
}

// params sizes a run. defaultParams gives the benchmark's sizes; tests
// shrink them.
type params struct {
	seconds   time.Duration
	setupReps int

	warmup     int     // ingest: unmeasured POSTs after boot
	ingestRate float64 // ingest: open-loop POST/s

	// mixed: incidents created, then resolved, at set-up; the resolved
	// count splits evenly over the scenarios.
	preload, resolve int
	mixedRate        float64 // mixed: open-loop requests/s

	bootIncidents, bootResolved int // recover: the store, built like mixed's

	batch, history int // sessions: sessions per pool batch; one-shot history size

	fleetArrivals, fleetWarmup, fleetRegions int

	appends int // traced runs: direct journal and lake appends timed
}

func defaultParams(seconds int) params {
	return params{
		seconds: time.Duration(seconds) * time.Second, setupReps: 3,
		warmup: 200, ingestRate: 100,
		preload: 600, resolve: 150, mixedRate: 400,
		bootIncidents: 120, bootResolved: 30,
		batch: 64, history: 150,
		fleetArrivals: 10000, fleetWarmup: 2000, fleetRegions: 16,
		appends: 100,
	}
}

// maxClosedRate bounds the tape a closed-loop phase may consume, in
// operations per second.
const maxClosedRate = 5000

// env is one run's context.
type env struct {
	seed    int64
	p       params
	clients int // load connections and pool workers: nproc
	work    string
	tr      *tracer // nil: untraced
	chk     *checker
	dirs    int

	mu                sync.Mutex
	attempted, failed int64
}

// newDir names a fresh scratch directory under the run's work dir.
func (e *env) newDir(name string) string {
	e.dirs++
	return filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.dirs))
}

// count adds a phase's operations to the run's attempted and failed
// totals; every failure is also a check violation.
func (e *env) count(ss []opSample) {
	e.mu.Lock()
	e.attempted += int64(len(ss))
	e.mu.Unlock()
	for _, s := range ss {
		if s.err != nil {
			e.fail(s.err)
		}
	}
}

// fail records one failed operation.
func (e *env) fail(err error) {
	e.mu.Lock()
	e.failed++
	e.mu.Unlock()
	e.chk.failf("%v", err)
}

// checker collects correctness violations.
type checker struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// result is what a workload measured.
type result struct {
	setups   []time.Duration
	lat      dist    // unit-operation latencies, ms
	tput     float64 // unit operations per second
	cpuPerOp float64 // process CPU ms per unit operation
	rssMB    float64 // median resident set over the measured phase
	digest   string
	checks   map[string]any
	layers   map[string]float64

	// det holds the deterministic /metrics counters of the ingest
	// workload's open-loop gateway, for the tracing-fidelity test.
	det map[string]float64
	// lakeEvents is the event count of each lake entry of that gateway,
	// by incident ID.
	lakeEvents map[string]int
}

func newResult() *result {
	return &result{checks: map[string]any{}, layers: map[string]float64{}}
}

// report is a run's full outcome.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Checks     map[string]any     `json:"checks"`

	res *result
}

// execute runs one workload in a scratch directory it removes after.
func execute(name string, seed int64, p params, trace bool, work, traceDir string) (*report, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	runWork := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(runWork, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runWork)

	e := &env{seed: seed, p: p, clients: runtime.NumCPU(), work: runWork, chk: &checker{}}
	if trace {
		e.tr = newTracer()
		labelSide("server")
		defer pprof.SetGoroutineLabels(context.Background())
	}
	steal0, ok0 := readSteal()
	res, err := fn(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if len(res.setups) == 0 || len(res.lat) == 0 || e.attempted == 0 {
		return nil, fmt.Errorf("%s: measured nothing", name)
	}

	rep := &report{
		Workload: name, Seed: seed, Seconds: p.seconds.Seconds(), Trace: trace,
		Attempted: e.attempted, Failed: e.failed, Checks: res.checks, res: res,
	}
	rep.Checks["nproc"] = e.clients
	rep.Checks["output_digest"] = res.digest
	rep.Checks["latency_samples"] = len(res.lat)
	rep.Checks["latency_tail"] = res.lat.tailName()
	rep.Checks["latency_tail_ms"] = res.lat.tail()
	for _, q := range []float64{90, 95, 99} {
		if beyond(len(res.lat), q) >= minBeyond {
			rep.Checks[fmt.Sprintf("latency_p%g_ms", q)] = percentile(res.lat, q)
		}
	}
	rep.Checks["setup_runs"] = len(res.setups)
	if steal1, ok1 := readSteal(); ok0 && ok1 {
		rep.Checks["cpu_steal_share"] = steal1.shareSince(steal0)
	}

	e2e := map[string]float64{
		"setup_s":          medianSeconds(res.setups),
		"latency_p50_ms":   res.lat.p50(),
		"throughput_per_s": res.tput,
		"cpu_ms_per_op":    res.cpuPerOp,
		"rss_mb":           res.rssMB,
	}
	if trace {
		res.layers["traced.latency_p50_ms"] = e2e["latency_p50_ms"]
		res.layers["traced.throughput_per_s"] = e2e["throughput_per_s"]
		tracerLayers(e.tr, res.layers)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		rep.Checks["trace_file"] = path
		rep.Metrics = pick(perLayer, res.layers)
	} else {
		rep.Metrics = pick(endToEnd, e2e)
	}
	for _, def := range endToEnd {
		if v := e2e[def.Name]; !(v > 0) || math.IsInf(v, 0) {
			e.chk.failf("end-to-end metric %s = %v, want a positive number", def.Name, v)
		}
	}
	if res.digest == "" {
		e.chk.failf("no output digest")
	}
	rep.Violations = e.chk.msgs
	rep.Correct = e.chk.n == 0 && e.failed == 0
	return rep, nil
}

// pick returns the values of defs, 0 where absent, never NaN or Inf.
func pick(defs []metricDef, vals map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = v
	}
	return out
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) line() resultLine {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.Name] = metricValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: m}
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := sortedKeys(workloads)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = fs.Int64("seed", 1, "seed every input of the run is generated from")
		seconds  = fs.Int("seconds", 20, "measured seconds")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced, end-to-end metrics")
		traceDir = fs.String("trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
		work     = fs.String("work", ".bench_build/work", "scratch directory for journals and lakes")
		out      = fs.String("out", "", "also write the full report, checks included, as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: want --workload (%s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	rep, err := execute(*workload, *seed, defaultParams(*seconds), *trace == 1, *work, *traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", v)
	}
	if *out != "" {
		if err := writeJSONFile(*out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	detail, err := json.Marshal(map[string]any{"workload": rep.Workload, "seed": rep.Seed, "checks": rep.Checks})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	last, err := json.Marshal(rep.line())
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, last)
	if !rep.Correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
