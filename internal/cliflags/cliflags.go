// Package cliflags registers the flag set shared by the evaluation
// CLIs (benchgen, abtest, replay): the determinism knobs (-seed,
// -workers), the fault-injection ladder (-faultrate, -faultseed,
// -naive), and the observability exports (-trace-out, -metrics-out,
// -pprof). Registering through one helper keeps the commands'
// vocabularies identical and lands new cross-cutting flags everywhere
// at once; command-specific flags (-n, -trials, -exp, ...) stay in
// their own main packages.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof
	"os"

	"repro"
	"repro/internal/embed"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// Common holds the parsed values of the shared flags.
type Common struct {
	Seed       int64
	Workers    int
	FaultRate  float64
	FaultSeed  int64
	Naive      bool
	NoCache    bool
	TraceOut   string
	MetricsOut string
	PProfAddr  string

	sink *obs.Sink
}

// Register installs the shared flags on fs and returns the struct their
// parsed values land in. seedDefault is per-command (benchgen has
// always defaulted to 42, abtest and replay to 1) so historical
// invocations keep producing their historical bytes.
func Register(fs *flag.FlagSet, seedDefault int64) *Common {
	c := &Common{}
	fs.Int64Var(&c.Seed, "seed", seedDefault, "base random seed")
	fs.IntVar(&c.Workers, "workers", 0, "parallel trial workers (0 = one per CPU; never changes results)")
	fs.Float64Var(&c.FaultRate, "faultrate", 0, "tool fault-injection rate in [0,1] (0 = no faults, byte-identical to historical runs; for benchgen it sets the top of E13's ladder)")
	fs.Int64Var(&c.FaultSeed, "faultseed", 1337, "fault-schedule seed")
	fs.BoolVar(&c.Naive, "naive", false, "with -faultrate: keep the naive invocation path instead of the resilient one")
	fs.BoolVar(&c.NoCache, "nocache", false, "disable the what-if fast-path caches (route DAGs, embeddings); output bytes never change, only speed")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write the structured session event log (JSON lines) to this path")
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write aggregate metrics (Prometheus text format) to this path")
	fs.StringVar(&c.PProfAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the life of the run")
	return c
}

// Validate checks the parsed values for ranges the flag package cannot
// express. A -faultrate outside [0,1] used to pass straight through to
// the injector, where the MaxRate cap silently flattened it — the run
// completed and printed plausible tables for a configuration that never
// existed. Call it right after fs.Parse.
func (c *Common) Validate() error {
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return fmt.Errorf("invalid -faultrate %v: must be in [0,1]", c.FaultRate)
	}
	if c.Workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0", c.Workers)
	}
	return nil
}

// MustValidate is Validate with the standard usage-error failure mode:
// message on stderr, exit status 2 (matching flag.ExitOnError).
func (c *Common) MustValidate() {
	if err := c.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// ApplyCaches applies the -nocache flag to the process-wide cache
// switches. Call it after flag.Parse, before any simulation work.
func (c *Common) ApplyCaches() {
	if c.NoCache {
		netsim.SetRouteCacheEnabled(false)
		embed.SetEmbedCacheEnabled(false)
	}
}

// Sink returns the run's observability sink, allocated on first use —
// or nil when neither -trace-out nor -metrics-out was given, which is
// the signal every layer below treats as "observability off". Only
// -trace-out reads the event log, so only -trace-out makes the sink
// keep one.
func (c *Common) Sink() *obs.Sink {
	if c.sink == nil {
		switch {
		case c.TraceOut != "":
			c.sink = obs.NewLogSink()
		case c.MetricsOut != "":
			c.sink = obs.NewSink()
		}
	}
	return c.sink
}

// SystemOptions assembles the aiops options the shared flags imply:
// seeding, workers, fault injection with the resilient helper unless
// -naive, and observability when an export path was requested.
func (c *Common) SystemOptions() []aiops.Option {
	opts := []aiops.Option{aiops.WithSeed(c.Seed), aiops.WithWorkers(c.Workers)}
	if c.FaultRate > 0 {
		opts = append(opts, aiops.WithFaults(aiops.FaultConfig{Rate: c.FaultRate, ActionRate: c.FaultRate / 2, Seed: c.FaultSeed}))
		if !c.Naive {
			opts = append(opts, aiops.WithResilientHelper())
		}
	}
	if s := c.Sink(); s != nil {
		opts = append(opts, aiops.WithObservability(s))
	}
	return opts
}

// StartPProf serves net/http/pprof when -pprof was given; a no-op
// otherwise. The listener is bound synchronously so bind failures (port
// in use, bad address) surface before the run starts, and the bound
// address — useful with ":0" — is reported on stderr; only the accept
// loop runs in the background. The old bare-goroutine ListenAndServe
// raced the run's exit: short runs finished before the listener bound,
// and bind errors were lost with it. Profiling stays advisory: failures
// are reported, never fatal.
func (c *Common) StartPProf() {
	c.startPProf(os.Stderr)
}

// startPProf is StartPProf with the diagnostic stream injected for
// tests.
func (c *Common) startPProf(w io.Writer) {
	if c.PProfAddr == "" {
		return
	}
	ln, err := net.Listen("tcp", c.PProfAddr)
	if err != nil {
		fmt.Fprintf(w, "pprof: %v\n", err)
		return
	}
	fmt.Fprintf(w, "pprof: serving on http://%s/debug/pprof\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(w, "pprof: %v\n", err)
		}
	}()
}

// Export writes the requested observability files from the sink. All
// progress goes to stderr; stdout stays reserved for the command's
// tables, which must remain byte-identical with exports on or off.
func (c *Common) Export() error {
	if c.sink == nil {
		return nil
	}
	if c.TraceOut != "" {
		if err := writeFile(c.TraceOut, c.sink.WriteEvents); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events)\n", c.TraceOut, len(c.sink.Events()))
	}
	if c.MetricsOut != "" {
		if err := writeFile(c.MetricsOut, c.sink.WriteMetrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", c.MetricsOut)
	}
	return nil
}

// MustExport is Export with the standard CLI failure mode.
func (c *Common) MustExport() {
	if err := c.Export(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
