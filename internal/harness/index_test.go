package harness_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// embedMisses runs one observed one-shot session on gray-link and
// returns the embedding-memo misses its similar-incidents store
// reported. The one-shot baseline never queries that store, so the
// count is the store's build: one miss per distinct history text.
func embedMisses(t *testing.T, r *harness.OneShotRunner) int64 {
	t.Helper()
	rec := obs.AcquireRecorder("index-test")
	defer rec.Release()
	r.RunObserved((&scenarios.GrayLink{}).Build(randsrc.New(3)), 3, rec)
	for _, ev := range rec.Events {
		if ev.Type == obs.EvCacheStats && ev.Cache == "embed" {
			return ev.CacheMisses
		}
	}
	t.Fatal("session emitted no embed cache-stats event")
	return 0
}

// TestHistoryAddInvalidatesSessionIndex: the history's indexes are
// built once per version, so after hist.Add the next session must see
// the new record — its store embeds one more text.
func TestHistoryAddInvalidatesSessionIndex(t *testing.T) {
	if !embed.EmbedCacheEnabled() {
		t.Skip("embed cache disabled")
	}
	t.Parallel()
	hist := replayer.Generate(replayer.Options{N: 40, Seed: 9}).History
	r := &harness.OneShotRunner{History: hist, KBase: currentKB()}
	before := embedMisses(t, r)
	if again := embedMisses(t, r); again != before {
		t.Fatalf("same history version: %d misses, then %d", before, again)
	}

	rec := kb.IncidentRecord{
		ID: "zz-new", Title: "Transceiver swap on the eu-north optical ring",
		Summary: "A planned optics replacement left one ring segment dark for ninety seconds.", RootCause: kb.CLinkDown,
	}
	hist.Add(rec)
	if got := embedMisses(t, r); got != before+1 {
		t.Fatalf("after Add: %d embed misses, want %d", got, before+1)
	}
	pred := baseline.Train(hist, currentKB(), embed.NewDomainEmbedder(128))
	if pred.Store.Len() != hist.Len() {
		t.Fatalf("one-shot store has %d records, history %d", pred.Store.Len(), hist.Len())
	}
	if hits := pred.Store.Search(rec.Text()+" symptoms: ", 1); len(hits) != 1 || hits[0].ID != rec.ID {
		t.Fatalf("new record not retrievable: %v", hits)
	}
}

// TestSharedRunnersWorkerIndependent shares one one-shot runner and one
// helper runner (with a history) across pool workers. Their sessions
// fork the history's indexes concurrently, the first ones racing to
// build them; results must equal a serial run's. Run it under -race.
func TestSharedRunnersWorkerIndependent(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	scs := []scenarios.Scenario{&scenarios.GrayLink{}, &scenarios.Cascade{Stage: 3}}
	run := func(workers int) []harness.Result {
		// A fresh history per run, so the index builds inside the pool.
		hist := replayer.Generate(replayer.Options{N: 150, Seed: 5}).History
		runners := []harness.Runner{
			&harness.OneShotRunner{History: hist, KBase: kbase},
			&harness.HelperRunner{KBase: kbase, Config: core.DefaultConfig(), History: hist},
		}
		trials := parallel.RunTrials(8, workers, 21, func(s int64, i int) harness.Result {
			return harness.BuildAndRun(runners[i%2], scs[(i/2)%2], s)
		})
		out := make([]harness.Result, len(trials))
		for i, tr := range trials {
			if tr.Err != nil {
				t.Fatal(tr.Err)
			}
			out[i] = tr.Value
		}
		return out
	}
	four, one := run(4), run(1)
	if !reflect.DeepEqual(four, one) {
		t.Fatalf("workers=4 and workers=1 differ:\n%+v\n%+v", four, one)
	}
}

// oneShotSessionAllocBound caps one warm one-shot gray-link session,
// scenario build included. Retraining per session (re-embedding the
// 150-record history twice and rebuilding the LSH index) read 1,104
// allocations; forking the history's indexes reads ~400.
const oneShotSessionAllocBound = 500

// TestOneShotSessionAllocs is not parallel: AllocsPerRun counts every
// goroutine's allocations.
func TestOneShotSessionAllocs(t *testing.T) {
	r := &harness.OneShotRunner{History: replayer.Generate(replayer.Options{N: 150, Seed: 5}).History, KBase: currentKB()}
	allocs := testing.AllocsPerRun(20, func() {
		r.Run((&scenarios.GrayLink{}).Build(randsrc.New(1)), 1)
	})
	t.Logf("one-shot gray-link session: %.0f allocs", allocs)
	if allocs > oneShotSessionAllocBound {
		t.Fatalf("one-shot session allocated %.0f times, bound %d", allocs, oneShotSessionAllocBound)
	}
}
