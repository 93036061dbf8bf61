// Command aiopsd runs the incident gateway as a long-lived service:
// the repo's batch fleet simulator (imctl fleet) turned into a daemon
// that accepts incidents over versioned HTTP/JSON and schedules them on
// the live responder pool.
//
//	aiopsd                         # serve on 127.0.0.1:8080, key dev
//	aiopsd -addr :9090 -keys "k1=netops,k2=storage-oncall"
//	aiopsd -sim                    # simulated clock + /v1/sim endpoints
//	aiopsd -timescale 1s           # wall mode in real time (default: 1s = 1 sim minute)
//	aiopsd -journal /var/lib/aiopsd  # crash-safe: fsync'd WAL + boot recovery
//	aiopsd -lake /var/lib/aiopsd-lake  # incident data lake + GET /v1/lake/...
//	aiopsd -rate 30 -burst 10      # per-caller token bucket (429 + Retry-After)
//	aiopsd -shed-depth 64          # 503-shed creates once 64 incidents are in flight
//	aiopsd -regions us-east,eu-west -steal  # region-sharded pool + work stealing
//
//	curl -s -X POST -H 'X-API-Key: dev' \
//	     -d '{"scenario":"gray-link","severity":"sev2"}' \
//	     http://127.0.0.1:8080/v1/incidents
//	curl -s -H 'X-API-Key: dev' http://127.0.0.1:8080/v1/incidents/inc-0001
//	curl -s -X PATCH -H 'X-API-Key: dev' -d '{"status":"resolved"}' \
//	     http://127.0.0.1:8080/v1/incidents/inc-0001
//	curl -s http://127.0.0.1:8080/metrics
//	curl -s http://127.0.0.1:8080/healthz       # liveness (no auth)
//	curl -s http://127.0.0.1:8080/readyz        # journal replayed + accepting
//	curl -N -H 'X-API-Key: dev' http://127.0.0.1:8080/v1/events   # SSE
//
// With -journal, every accepted/patched/resolved/shed transition is
// fsync'd to an append-only checksummed log BEFORE the 2xx leaves the
// socket; on the next boot the journal replays, unresolved incidents
// re-run their sessions from the same (base, id)-derived seeds, and the
// scheduler resumes the identical timeline — kill -9 loses nothing that
// was acknowledged.
//
// On SIGINT/SIGTERM the daemon stops accepting work (readyz flips, SSE
// streams end), drains the scheduler (every accepted arrival still runs
// to completion on the simulated timeline), prints the fleet summary
// table to stdout, and writes any requested -trace-out/-metrics-out
// exports.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
)

func main() {
	fs := flag.NewFlagSet("aiopsd", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		keys       = fs.String("keys", "dev=local-dev", "comma-separated apikey=caller pairs; the key goes in X-API-Key, the caller name onto the record")
		oces       = fs.Int("oces", 3, "responder pool size")
		queue      = fs.Int("queue", 8, "admission bound on the waiting queue (0 = unbounded, never shed)")
		aging      = fs.Duration("aging", 30*time.Minute, "queue-wait that promotes an incident one severity class (negative disables aging)")
		fifo       = fs.Bool("fifo", false, "dispatch in strict arrival order instead of severity+aging")
		arm        = fs.String("arm", "assisted", "which responder arm serves the pool: assisted or unassisted")
		regions    = fs.String("regions", fleet.DefaultRegion, "comma-separated region/cell names; more than one shards the scheduler per region (-oces and -queue then apply per region), and POST /v1/incidents accepts a region field validated against this set")
		steal      = fs.Bool("steal", false, "allow a saturated region's incidents to execute on an idle region's pool (multi-region only)")
		sim        = fs.Bool("sim", false, "simulated clock under explicit control: exposes POST /v1/sim/{advance,drain} and time only moves when told (deterministic harness mode)")
		timescale  = fs.Duration("timescale", time.Minute, "wall-clock mode: simulated time per wall second (1m = demo speed, 1s = real time)")
		journalDir = fs.String("journal", "", "write-ahead journal directory: fsync every state transition before acking, replay it on boot (empty = in-memory only)")
		lakeDir    = fs.String("lake", "", "incident data lake directory: fsync every completed session's postmortem + event stream before the 201, serve GET /v1/lake/... (empty = disabled)")
		rate       = fs.Float64("rate", 0, "per-caller token-bucket rate limit on POST/PATCH, requests per simulated minute (0 = unlimited)")
		burst      = fs.Float64("burst", 10, "token-bucket burst capacity (with -rate)")
		shedDepth  = fs.Int("shed-depth", 0, "503-shed POST /v1/incidents once this many incidents are in flight (0 = never)")
		maxBody    = fs.Int64("max-body", 0, "request body cap in bytes; overflow is a 413 (0 = 1 MiB default)")
		readHdrTO  = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		readTO     = fs.Duration("read-timeout", time.Minute, "http.Server ReadTimeout (whole-request read)")
		writeTO    = fs.Duration("write-timeout", time.Minute, "http.Server WriteTimeout (SSE /v1/events is exempt)")
		drainTO    = fs.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight HTTP before force-closing")
	)
	c := cliflags.Register(fs, 7)
	fs.Parse(os.Args[1:])
	c.MustValidate()
	c.StartPProf()
	c.ApplyCaches()

	keyMap, err := parseKeys(*keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// Runner construction mirrors `imctl fleet`: the assisted helper
	// (resilient unless -naive) or the unassisted control, both under
	// the shared fault-injection flags.
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	var fc faults.Config
	cfg := core.DefaultConfig()
	if c.FaultRate > 0 {
		fc = faults.Config{Rate: c.FaultRate, ActionRate: c.FaultRate / 2, Degrade: 0.5, Seed: c.FaultSeed}
		if !c.Naive {
			cfg.Resilience = core.DefaultResilience()
		}
	}
	var runner harness.Runner
	switch *arm {
	case "assisted":
		runner = &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: cfg, Faults: fc}
	case "unassisted":
		runner = &harness.ControlRunner{Label: "unassisted-oce", KBase: kbase, Faults: fc}
	default:
		fmt.Fprintf(os.Stderr, "invalid -arm %q: want assisted or unassisted\n", *arm)
		os.Exit(2)
	}

	sink := daemonSink(c)

	policy := fleet.SeverityAging
	if *fifo {
		policy = fleet.FIFO
	}
	regionList := parseRegions(*regions)
	if len(regionList) == 0 {
		fmt.Fprintln(os.Stderr, "-regions is empty: at least one region name required")
		os.Exit(2)
	}
	// One responder pool per region; the default single region is the
	// classic single-cell fleet.
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: regionList, OCEs: *oces, Policy: policy,
		QueueLimit: *queue, AgingStep: *aging, Steal: *steal,
		Obs: sink, RunnerName: runner.Name(),
	})

	// Open the journal (and scan what a previous life left) before the
	// clock exists: in wall mode the simulated timeline resumes from the
	// journal's high-water mark, not from zero.
	var jr *journal.Journal
	var rr journal.ReplayResult
	if *journalDir != "" {
		jr, rr, err = journal.Open(*journalDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer jr.Close()
	}
	var dl *lake.Lake
	if *lakeDir != "" {
		var lr lake.RecoverResult
		dl, lr, err = lake.Open(*lakeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer dl.Close()
		fmt.Fprintf(os.Stderr, "aiopsd: lake %s: recovered %d entries (%d torn dropped, %d bytes)\n",
			dl.Path(), lr.Entries, lr.Dropped, lr.Bytes)
	}
	var clock gateway.Clock
	if *sim {
		clock = gateway.NewSimClock()
	} else {
		clock = gateway.NewWallClockAt(
			time.Duration(rr.MaxAtMinutes()*float64(time.Minute)), *timescale)
	}
	gw := gateway.NewServer(gateway.Config{
		Keys: keyMap, Clock: clock, Sched: sched, Runner: runner,
		Seed: c.Seed, Sink: sink, SimControl: *sim,
		Journal: jr, Lake: dl, RatePerMin: *rate, Burst: *burst,
		ShedDepth: *shedDepth, MaxBody: *maxBody,
	})
	if jr != nil {
		stats, err := gw.Recover(rr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aiopsd: journal recovery: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "aiopsd: journal %s: replayed %d records (%d re-offered, %d resolved, %d torn dropped)\n",
			jr.Path(), stats.Records, stats.Reoffered, stats.Resolved, stats.Dropped)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mode := fmt.Sprintf("wall clock, 1s = %s simulated", *timescale)
	if *sim {
		mode = "sim clock (advance via POST /v1/sim/advance)"
	}
	fmt.Fprintf(os.Stderr, "aiopsd: serving on http://%s (%s, arm %s, regions %s, %d OCEs/region, queue bound %d, steal %v)\n",
		ln.Addr(), mode, runner.Name(), strings.Join(regionList, ","), *oces, *queue, *steal)

	srv := newHTTPServer(gw.Handler(), *readHdrTO, *readTO, *writeTO)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "aiopsd: %v: draining\n", sig)
	case err := <-done:
		fmt.Fprintf(os.Stderr, "aiopsd: serve: %v\n", err)
	}

	// Graceful drain: flip readyz, end SSE streams, stop intake, finish
	// every accepted arrival on the simulated timeline, report.
	gw.Shutdown()
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	shutdownHTTP(srv, *drainTO, logf)
	fmt.Println(fleet.ShardedSummaryTable(
		fmt.Sprintf("aiopsd drain: %d regions, %d OCEs/region, queue bound %d, steal %v",
			len(regionList), *oces, *queue, *steal),
		sched.DrainSharded()))
	c.MustExport()
}

// daemonSink returns the daemon's sink. The daemon always runs one —
// /metrics and /v1/events need it — reusing the flag-allocated sink
// when exports were requested so shutdown exports see the live data.
// Only -trace-out makes it keep an event log; otherwise each event is
// counted, pushed to SSE subscribers and dropped, so the daemon's
// memory does not grow with its event count.
func daemonSink(c *cliflags.Common) *obs.Sink {
	if s := c.Sink(); s != nil {
		return s
	}
	return obs.NewSink()
}

// parseRegions parses the -regions flag: comma-separated names, blanks
// and duplicates dropped.
func parseRegions(s string) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimSpace(r)
		if r == "" || seen[r] {
			continue
		}
		seen[r] = true
		out = append(out, r)
	}
	return out
}

// newHTTPServer wires the gateway handler into an http.Server with the
// overload-protection timeouts. ReadHeaderTimeout is the slowloris
// guard; WriteTimeout bounds every response except SSE, which clears
// its own per-request deadline.
func newHTTPServer(h http.Handler, readHeader, read, write time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeader,
		ReadTimeout:       read,
		WriteTimeout:      write,
		IdleTimeout:       2 * time.Minute,
	}
}

// shutdownHTTP drains in-flight HTTP with a deadline, then force-closes
// whatever is still connected. The Shutdown error is logged, never
// swallowed: a hung client at drain is an operational signal.
func shutdownHTTP(srv *http.Server, timeout time.Duration, logf func(string, ...any)) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logf("aiopsd: http drain: %v (force-closing)", err)
		_ = srv.Close()
	}
}

// parseKeys parses the -keys flag: "apikey=caller,apikey=caller".
func parseKeys(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		key, caller, ok := strings.Cut(pair, "=")
		if !ok || key == "" || caller == "" {
			return nil, fmt.Errorf("invalid -keys entry %q: want apikey=caller", pair)
		}
		if prev, dup := out[key]; dup {
			return nil, fmt.Errorf("duplicate api key %q (callers %q and %q)", key, prev, caller)
		}
		out[key] = caller
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-keys is empty: at least one apikey=caller pair required")
	}
	return out, nil
}
