package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/journal"
)

// preload fills a gateway with the tape's preload incidents, moves the
// clock to the tick holding the last of them, then resolves the tape's
// resolve set. The clock moves once, after every POST, so the journal
// and every record view are a pure function of the tape.
func preload(e *env, cs []*client, t *mixedTape) error {
	ss, _ := closedLoop(cs, time.Hour, len(t.Preload), func(c *client, i int) error {
		return c.post(t.Preload[i])
	}, nil)
	e.count(ss)
	last := t.Preload[len(t.Preload)-1].AtMin
	if err := cs[0].advanceTo(math.Floor(last/tickMinutes) * tickMinutes); err != nil {
		return err
	}
	ss, _ = closedLoop(cs, time.Hour, len(t.Resolve), func(c *client, i int) error {
		a := t.Preload[t.Resolve[i]]
		rec, err := c.patch(a.ID, map[string]string{"status": "resolved"})
		if err == nil && rec.Status != "resolved" {
			err = fmt.Errorf("PATCH %s: status %q after resolving", a.ID, rec.Status)
		}
		return err
	}, nil)
	e.count(ss)
	if failures(ss) > 0 {
		return fmt.Errorf("preload: %d operations failed", failures(ss))
	}
	return nil
}

// runMixed is the reads-beside-writes workload: the same gateway and
// journal as ingest, used differently. Reads take the gateway lock and
// the scheduler's Lookup while the journal fsyncs under that lock, so a
// write-path change that slows reads shows here.
//
// Set-up boots a gateway and preloads it (create, then resolve a
// quarter). Phase 2 sends the mixed stream open loop for half the run —
// 80% GET by id, 10% list (limit 50, random region filter), 5% PATCH
// note, 5% POST — timed as openLoop describes; the reads are the
// latency metric. Phase 3 sends the same mix closed loop for the other
// half: the throughput metric. Unit operation: one request.
func runMixed(e *env) (*result, error) {
	p := e.p
	dur2 := p.seconds / 2
	dur3 := p.seconds - dur2
	n2 := int(p.mixedRate * dur2.Seconds())
	t := newMixedTape(e.seed, p.preload, p.resolve, n2+int(maxClosedRate*dur3.Seconds()))
	res := newResult()

	var st *stack
	var cs []*client
	for r := 0; r < p.setupReps; r++ {
		if st != nil {
			closeClients(cs)
			if err := st.closeAndRemove(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = serve(e.newDir("mixed"), e.tr); err != nil {
			return nil, err
		}
		cs = newClients(st.base, e.clients, e.tr)
		if err := preload(e, cs, t); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	all, err := listRecords(st.gw.Handler())
	if err != nil {
		return nil, err
	}
	if len(all) != len(t.Preload) {
		e.chk.failf("list holds %d incidents after preloading %d", len(all), len(t.Preload))
	}
	res.digest = digestJSON(all)

	// The clock stays where set-up left it: POSTs wait in the scheduler's
	// pending set, and no scheduler step competes with the reads.
	notes := make([]atomic.Int64, len(t.Preload))
	op := func(c *client, i int) error {
		o := t.Ops[i]
		switch o.Kind {
		case opGet:
			a := t.Preload[o.Target]
			_, err := c.get(a.ID, a.Region)
			return err
		case opList:
			_, err := c.list(o.Region, 50)
			return err
		case opPatch:
			a := t.Preload[o.Target]
			note := fmt.Sprintf("op %d", i)
			rec, err := c.patch(a.ID, map[string]string{"note": note})
			if err != nil {
				return err
			}
			notes[o.Target].Add(1)
			if len(rec.Notes) == 0 || rec.Notes[len(rec.Notes)-1] != "local-dev: "+note {
				return fmt.Errorf("PATCH %s: note %q missing from %q", a.ID, note, rec.Notes)
			}
			return nil
		default:
			return c.post(t.Posts[o.Post])
		}
	}

	pr, err := e.probe()
	if err != nil {
		return nil, err
	}
	cpu0, rss := cpuTime(), startRSS()
	ss2 := openLoop(cs, n2, p.mixedRate, op, nil)
	res.cpuPerOp = ms(cpuTime()-cpu0) / float64(n2)
	res.rssMB = rss.median()
	e.count(ss2)
	checkGenerator(e, res, ss2)
	byKind := map[opKind][]time.Duration{}
	var reads []time.Duration
	for i, s := range ss2 {
		k := t.Ops[i].Kind
		byKind[k] = append(byKind[k], s.lat)
		if k == opGet || k == opList {
			reads = append(reads, s.lat)
		}
	}
	res.lat = msOf(reads)
	res.checks["read_p50_ms"] = res.lat.p50()
	res.checks["read_"+res.lat.tailName()+"_ms"] = res.lat.tail()
	for _, k := range []opKind{opPatch, opPost} {
		d := msOf(byKind[k])
		res.checks[string(k)+"_samples"] = len(d)
		res.checks[string(k)+"_"+d.tailName()+"_ms"] = d.tail()
	}

	ops3 := t.Ops[n2:]
	ss3, elapsed := closedLoop(cs, dur3, len(ops3), func(c *client, i int) error { return op(c, n2+i) }, nil)
	e.count(ss3)
	res.tput = float64(len(ss3)-failures(ss3)) / elapsed.Seconds()

	// Every note a PATCH added is on its record.
	checked := 0
	for i := range notes {
		if n := notes[i].Load(); n > 0 && checked < 100 {
			checked++
			a := t.Preload[i]
			rec, err := cs[0].get(a.ID, a.Region)
			if err != nil {
				e.fail(err)
			} else if int64(len(rec.Notes)) != n {
				e.chk.failf("%s carries %d notes after %d note PATCHes", a.ID, len(rec.Notes), n)
			}
		}
	}

	var sc scrape
	if pr != nil {
		if sc, err = cs[0].metrics(); err != nil {
			return nil, err
		}
		res.layers["obs.events_retained"] = float64(len(st.sink.Events()))
	}
	entries := firstN(st.dl.Entries(), p.appends)
	closeClients(cs)
	if err := st.closeAndRemove(); err != nil {
		return nil, err
	}
	if pr != nil {
		if err := pr.finish(int64(n2+len(ss3)), res.layers); err != nil {
			return nil, err
		}
		scrapeLayers([]scrape{sc}, res.layers)
		if err := timeAppends(e, entries, res.layers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runRecover is the boot-recovery workload: what a restarted `aiopsd`
// does before it serves — open the journal and the lake, build the
// gateway, and re-run and re-offer every unresolved incident. The cost
// grows with the store, and a restart waits on all of it.
//
// Set-up builds a store the mixed way (create, resolve a quarter) and
// closes it without draining, as a crash would leave it. The measured
// loop boots a copy of it over and over; every boot must recover the
// same records and serve the same list. Unit operation: one boot for
// latency, one re-offered incident for throughput and CPU.
func runRecover(e *env) (*result, error) {
	p := e.p
	t := newMixedTape(e.seed, p.bootIncidents, p.bootResolved, 0)
	res := newResult()
	var tmpl string
	for r := 0; r < p.setupReps; r++ {
		t0 := time.Now()
		dir := e.newDir("store")
		st, err := serve(dir, nil)
		if err != nil {
			return nil, err
		}
		cs := newClients(st.base, e.clients, nil)
		perr := preload(e, cs, t)
		closeClients(cs)
		if err := st.close(); err != nil || perr != nil {
			return nil, fmt.Errorf("building the store: %w", errors.Join(perr, err))
		}
		if tmpl != "" {
			if err := os.RemoveAll(tmpl); err != nil {
				return nil, err
			}
		}
		tmpl = dir
		res.setups = append(res.setups, time.Since(t0))
	}
	want, err := journal.Replay(tmpl)
	if err != nil {
		return nil, err
	}

	pr, err := e.probe()
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	var boots []time.Duration
	var jo, lo, rp []time.Duration
	var cpu time.Duration
	reoffered := 0
	deadline := time.Now().Add(p.seconds)
	for len(boots) == 0 || time.Now().Before(deadline) {
		dir := e.newDir("boot")
		if err := copyDir(tmpl, dir); err != nil {
			return nil, err
		}
		c0, t0 := cpuTime(), time.Now()
		b, err := boot(dir, e.tr)
		d := time.Since(t0)
		cpu += cpuTime() - c0
		e.count([]opSample{{err: err}})
		if err != nil {
			return nil, err
		}
		boots = append(boots, d)
		jo, lo, rp = append(jo, b.times.journalOpen), append(lo, b.times.lakeOpen), append(rp, b.times.replay)
		reoffered += b.stats.Reoffered
		if s := b.stats; s.Records != len(want.Records) || s.Dropped != 0 ||
			s.Resolved != len(t.Resolve) || s.Reoffered != len(t.Preload)-len(t.Resolve) {
			e.chk.failf("boot %d: recovered %+v from %d journal records, want %d resolved and %d re-offered",
				len(boots), s, len(want.Records), len(t.Resolve), len(t.Preload)-len(t.Resolve))
		}
		all, err := listRecords(b.gw.Handler())
		if err != nil {
			return nil, err
		}
		if digest := digestJSON(all); res.digest == "" {
			res.digest = digest
		} else if digest != res.digest {
			e.chk.failf("boot %d serves a different list than boot 1", len(boots))
		}
		if err := errors.Join(b.close(), os.RemoveAll(dir)); err != nil {
			return nil, err
		}
	}
	res.lat = msOf(boots)
	res.tput = float64(reoffered) / (res.lat.sum() / 1000)
	res.cpuPerOp = ms(cpu) / float64(reoffered)
	res.rssMB = rss.median()
	res.checks["boots"] = len(boots)
	res.checks["recover_p50_s"] = res.lat.p50() / 1000
	if pr != nil {
		if err := pr.finish(int64(reoffered), res.layers); err != nil {
			return nil, err
		}
		res.layers["recover.journal_open_ms"] = msOf(jo).p50()
		res.layers["recover.lake_open_ms"] = msOf(lo).p50()
		res.layers["recover.replay_ms"] = msOf(rp).p50()
		res.layers["recover.reoffered"] = float64(reoffered) / float64(len(boots))
	}
	return res, os.RemoveAll(tmpl)
}

// listRecords walks a gateway's full incident list in process.
func listRecords(h http.Handler) ([]gateway.Record, error) {
	var all []gateway.Record
	cursor := ""
	for {
		path := "/v1/incidents?limit=200"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("X-API-Key", apiKey)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("list: HTTP %d: %s", w.Code, w.Body)
		}
		var page gateway.ListPage
		if err := json.Unmarshal(w.Body.Bytes(), &page); err != nil {
			return nil, err
		}
		all = append(all, page.Incidents...)
		if page.NextCursor == "" {
			return all, nil
		}
		cursor = page.NextCursor
	}
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
