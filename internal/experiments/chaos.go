package experiments

// E16 — crash-safety chaos harness (extension): proves the gateway's
// durability contract the adversarial way. Each cycle boots a real
// gateway (journal + recovery + live scheduler) on a loopback socket,
// fires a concurrent pool of fault-injecting HTTP clients at it
// (faults.HTTPSchedule: dropped connections, slow bodies, oversized and
// truncated payloads), then kills the process state abruptly — the
// listener is torn down mid-flight, the journal handle is abandoned
// with a garbage partial record appended to simulate the torn write a
// SIGKILL leaves — and the next cycle recovers from the journal alone.
// After the final recovery the scheduler drains and the harness checks
// conservation: every 2xx-acknowledged incident is present and
// scheduled exactly once (zero loss, zero duplicates), and every
// faulted request was refused with the contract status (413/400/no
// ack).
//
// Determinism: the arrival tape and the fault schedule are pure
// functions of the seed, acknowledgement is decided by the fault class
// (not by timing), and recovery replays sessions from (base, id)
// seeds — so the E16 tables are byte-identical at ANY client
// concurrency (-workers), crash cycles included. The cmd/aiopsd test
// suite runs the same loop with real SIGKILLs against the built binary.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/scenarios"
)

const (
	// e16Key reuses the E15 load-gen key: e15Post hardwires it into the
	// X-API-Key header, and the sim control endpoints are authenticated.
	e16Key     = e15Key
	e16Cycles  = 3    // kill/restart cycles (a final boot drains)
	e16Rate    = 0.4  // fraction of requests faulted
	e16MaxBody = 4096 // small body cap so oversize requests stay cheap
)

// e16Boot is one gateway life: journal opened, state recovered, socket
// listening.
type e16Boot struct {
	jr    *journal.Journal
	stats gateway.RecoverStats
	hs    *http.Server
	base  string
	cli   *http.Client
}

// e16Up boots a gateway over the journal dir and recovers.
func e16Up(dir string, p Params, r harness.Runner, seed int64) (*e16Boot, error) {
	jr, rr, err := journal.Open(dir)
	if err != nil {
		return nil, err
	}
	sched := fleet.NewSharded(fleet.ShardedLiveConfig{
		OCEs: 2, QueueLimit: 4,
		Obs: p.Obs, RunnerName: r.Name(),
	})
	gw := gateway.NewServer(gateway.Config{
		Keys:  map[string]string{e16Key: "chaos"},
		Clock: gateway.NewSimClock(),
		Sched: sched, Runner: r, Seed: seed,
		Sink: p.Obs, SimControl: true,
		Journal: jr, MaxBody: e16MaxBody,
	})
	stats, err := gw.Recover(rr)
	if err != nil {
		jr.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jr.Close()
		return nil, err
	}
	hs := &http.Server{Handler: gw.Handler()}
	go hs.Serve(ln)
	return &e16Boot{
		jr: jr, stats: stats, hs: hs,
		base: "http://" + ln.Addr().String(),
		cli:  &http.Client{},
	}, nil
}

// kill tears the boot down the unceremonious way: connections cut, the
// journal handle dropped without ceremony (every acked record is
// already fsync'd, so this is SIGKILL-equivalent for durability), and a
// garbage partial line appended to the WAL to simulate the torn write
// an interrupted append leaves behind.
func (b *e16Boot) kill(dir string) error {
	b.cli.CloseIdleConnections()
	b.hs.Close()
	b.jr.Close()
	f, err := os.OpenFile(filepath.Join(dir, journal.FileName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.WriteString(`deadbeef {"kind":"accepted","id":"torn-half`)
	f.Close()
	return err
}

// e16Verify GETs every previously acknowledged incident and counts the
// ones the recovered gateway no longer knows — the "lost" column, which
// the durability contract pins at zero.
func (b *e16Boot) e16Verify(acked []string) (survivors, lost int) {
	for _, id := range acked {
		req, _ := http.NewRequest(http.MethodGet, b.base+"/v1/incidents/"+id, nil)
		req.Header.Set("X-API-Key", e16Key)
		resp, err := b.cli.Do(req)
		if err != nil {
			lost++
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			survivors++
		} else {
			lost++
		}
	}
	return survivors, lost
}

// E16Chaos runs the kill/restart chaos loop and tabulates per-cycle
// fault/recovery counts plus the final conservation check.
func E16Chaos(p Params) []*eval.Table {
	p = p.withDefaults()
	seed := p.Seed + 163
	runner := &harness.HelperRunner{Label: "assisted-helper", KBase: currentKB(), Config: core.DefaultConfig()}
	// Deadline sized for the slow-body class on a loaded CI box — the
	// 30s default can cut a dribbled upload short under contention.
	sched := faults.HTTPSchedule{Rate: e16Rate, Seed: seed ^ 0x5eed, Deadline: 2 * time.Minute}
	mix := scenarios.All()
	dir, err := os.MkdirTemp("", "e16-journal-")
	if err != nil {
		panic(fmt.Errorf("e16: %w", err))
	}
	defer os.RemoveAll(dir)

	n := p.Trials * 2 // arrivals per cycle
	cyc := eval.NewTable(fmt.Sprintf("E16 (extension): crash-safety chaos — %d kill/restart cycles, %d arrivals/cycle, fault rate %.0f%%, 2 OCEs, queue bound 4", e16Cycles, n, e16Rate*100),
		"cycle", "posted", "acked", "dropped", "oversize", "truncated", "recovered", "lost", "torn")

	var acked []string // every ID a client saw a 201 for, in tape order
	for cycle := 0; cycle < e16Cycles; cycle++ {
		b, err := e16Up(dir, p, runner, seed)
		if err != nil {
			panic(fmt.Errorf("e16: cycle %d boot: %w", cycle, err))
		}
		// Recovery audit: everything acknowledged before the kill must
		// still be served.
		survivors, lost := b.e16Verify(acked)

		// The chaos client pool: each trial is one POST with its
		// schedule-assigned fault class, against the raw socket.
		type outcome struct {
			id   string
			code int
			cls  faults.HTTPClass
		}
		outs := make([]outcome, n)
		addr := b.base[len("http://"):]
		trials := parallel.RunTrials(n, p.Workers, seed+int64(cycle), func(_ int64, i int) error {
			g := cycle*n + i // global tape index
			id := fmt.Sprintf("ch-%04d", g)
			cls := sched.ClassAt(g)
			body := []byte(fmt.Sprintf(`{"id":%q,"scenario":%q,"opened_at_minutes":%d}`,
				id, mix[g%len(mix)].Name(), (g+1)*3))
			code, err := sched.SendChaos(addr, "/v1/incidents", e16Key, body, cls, e16MaxBody)
			if err != nil && cls != faults.HTTPDrop {
				return fmt.Errorf("%s (%v): %w", id, cls, err)
			}
			outs[i] = outcome{id: id, code: code, cls: cls}
			return nil
		})
		for _, tr := range trials {
			if tr.Err != nil {
				panic(fmt.Errorf("e16: client crashed: %v", tr.Err))
			}
			if tr.Value != nil {
				panic(fmt.Errorf("e16: %v", tr.Value))
			}
		}
		counts := map[faults.HTTPClass]int{}
		ackedHere := 0
		for _, o := range outs {
			want := map[faults.HTTPClass]int{
				faults.HTTPNone:     http.StatusCreated,
				faults.HTTPSlowBody: http.StatusCreated,
				faults.HTTPOversize: http.StatusRequestEntityTooLarge,
				faults.HTTPTruncate: http.StatusBadRequest,
				faults.HTTPDrop:     0,
			}[o.cls]
			if o.code != want {
				panic(fmt.Errorf("e16: %s (%v): HTTP %d, want %d", o.id, o.cls, o.code, want))
			}
			if o.code == http.StatusCreated {
				acked = append(acked, o.id)
				ackedHere++
			} else {
				counts[o.cls]++
			}
		}
		// Let the schedule work through half the batch, then kill it
		// mid-stride: some incidents resolved, some active, some still
		// pending when the axe falls.
		mid := float64((cycle*n + n/2) * 3)
		if err := e15Post(b.cli, b.base+"/v1/sim/advance",
			[]byte(fmt.Sprintf(`{"to_minutes":%g}`, mid)), http.StatusOK, nil); err != nil {
			panic(fmt.Errorf("e16: advance: %w", err))
		}
		if err := b.kill(dir); err != nil {
			panic(fmt.Errorf("e16: kill: %w", err))
		}
		cyc.AddRow(cycle, n, ackedHere,
			counts[faults.HTTPDrop], counts[faults.HTTPOversize], counts[faults.HTTPTruncate],
			survivors, lost, b.stats.Dropped)
	}

	// Final boot: recover everything, verify the full acked set one
	// last time, drain, and check conservation end to end.
	b, err := e16Up(dir, p, runner, seed)
	if err != nil {
		panic(fmt.Errorf("e16: final boot: %w", err))
	}
	survivors, lost := b.e16Verify(acked)
	var sum gateway.DrainSummary
	if err := e15Post(b.cli, b.base+"/v1/sim/drain", nil, http.StatusOK, &sum); err != nil {
		panic(fmt.Errorf("e16: drain: %w", err))
	}
	b.cli.CloseIdleConnections()
	b.hs.Close()
	b.jr.Close()

	verdict := "ok: zero loss, zero duplicates"
	if lost > 0 || survivors != len(acked) {
		verdict = fmt.Sprintf("LOST %d acknowledged incidents", lost)
	}
	if sum.Incidents != len(acked) {
		verdict = fmt.Sprintf("CONSERVATION VIOLATED: %d scheduled vs %d acked", sum.Incidents, len(acked))
	}
	con := eval.NewTable("E16: conservation after final recovery + drain — every 2xx-acknowledged incident scheduled exactly once",
		"acked", "recovered", "scheduled", "admitted", "shed", "torn", "verdict")
	con.AddRow(len(acked), survivors, sum.Incidents, sum.Admitted, sum.Shed, b.stats.Dropped, verdict)
	return []*eval.Table{cyc, con}
}
