package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/obs"
)

// gatewaySeed is the base seed session seeds derive from: `aiopsd`'s
// -seed default. The benchmark seed shapes the tapes, not the service.
const gatewaySeed = 7

// newAssistedRunner is `aiopsd -arm assisted` without fault injection.
func newAssistedRunner() *harness.HelperRunner {
	kbase := kb.Default()
	kb.ApplyFastpathUpdate(kbase)
	return &harness.HelperRunner{Label: "assisted-helper", KBase: kbase, Config: core.DefaultConfig()}
}

// bootTimes splits one boot into its layers.
type bootTimes struct {
	journalOpen, lakeOpen, replay time.Duration
}

// booted is a gateway built over a journal and lake directory the way
// `aiopsd -sim -regions r0,r1,r2,r3 -steal -journal D -lake D` builds
// it, after its boot-time recovery, not yet serving.
type booted struct {
	dir   string
	jr    *journal.Journal
	dl    *lake.Lake
	sink  *obs.Sink
	sched *fleet.ShardedScheduler
	gw    *gateway.Server
	stats gateway.RecoverStats
	times bootTimes
}

// boot opens the stores in dir, builds the gateway and runs Recover.
// With a tracer, the runner and scheduler are decorated and each boot
// step is a span.
func boot(dir string, tr *tracer) (*booted, error) {
	b := &booted{dir: dir}
	step := func(name string, fn func()) time.Duration {
		if tr != nil {
			return tr.span(name, "", fn)
		}
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	var runner harness.Runner = newAssistedRunner()
	b.sink = obs.NewSink()
	b.sched = fleet.NewSharded(fleet.ShardedLiveConfig{
		Regions: regions, OCEs: 3, Policy: fleet.SeverityAging,
		QueueLimit: 8, AgingStep: 30 * time.Minute, Steal: true,
		Obs: b.sink, RunnerName: runner.Name(),
	})
	var sched fleet.Scheduler = b.sched
	if tr != nil {
		runner = tr.wrapRunner(runner)
		sched = &tracedScheduler{ShardedScheduler: b.sched, t: tr}
	}

	var rr journal.ReplayResult
	var err error
	b.times.journalOpen = step("recover.journal_open", func() { b.jr, rr, err = journal.Open(dir) })
	if err != nil {
		return nil, err
	}
	b.times.lakeOpen = step("recover.lake_open", func() { b.dl, _, err = lake.Open(dir) })
	if err != nil {
		b.jr.Close()
		return nil, err
	}
	b.times.replay = step("recover.replay", func() {
		b.gw = gateway.NewServer(gateway.Config{
			Keys: map[string]string{apiKey: "local-dev"}, Clock: gateway.NewSimClock(),
			Sched: sched, Runner: runner, Seed: gatewaySeed, Sink: b.sink, SimControl: true,
			Journal: b.jr, Lake: b.dl, Burst: 10,
		})
		b.stats, err = b.gw.Recover(rr)
	})
	if err != nil {
		b.close()
		return nil, fmt.Errorf("recover: %w", err)
	}
	return b, nil
}

// close shuts the gateway down and closes both stores.
func (b *booted) close() error {
	if b.gw != nil {
		b.gw.Shutdown()
	}
	return errors.Join(b.jr.Close(), b.dl.Close())
}

// stack is a booted gateway serving HTTP on a loopback listener.
type stack struct {
	*booted
	srv  *http.Server
	base string
	done chan error
}

// serve boots a gateway over dir and serves it on 127.0.0.1 with the
// timeouts `aiopsd` sets.
func serve(dir string, tr *tracer) (*stack, error) {
	b, err := boot(dir, tr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	h := b.gw.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	s := &stack{
		booted: b,
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() {
		if tr != nil {
			labelSide("server")
		}
		s.done <- s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops serving, waits for the server goroutine, and closes the
// stores.
func (s *stack) close() error {
	s.gw.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = errors.Join(err, s.srv.Close())
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.booted.close())
}

// closeAndRemove closes the stack and deletes its directory.
func (s *stack) closeAndRemove() error {
	return errors.Join(s.close(), os.RemoveAll(s.dir))
}
