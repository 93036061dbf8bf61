package harness_test

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/parallel"
	"repro/internal/randsrc"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// TestHistoryAddInvalidatesSessionIndex: the history's indexes are
// built once per version, so after hist.Add a fork of the session's
// similar-incidents index, and the one-shot baseline's, must hold the
// new record and retrieve it.
func TestHistoryAddInvalidatesSessionIndex(t *testing.T) {
	t.Parallel()
	hist := replayer.Generate(replayer.Options{N: 40, Seed: 9}).History
	emb := embed.NewDomainEmbedder(128)
	// The index a session's similar-incidents tool searches.
	similar := func() *embed.Store { return hist.Index("similar-incidents", emb, kb.IncidentRecord.Text) }
	before := similar()

	rec := kb.IncidentRecord{
		ID: "zz-new", Title: "Transceiver swap on the eu-north optical ring",
		Summary: "A planned optics replacement left one ring segment dark for ninety seconds.", RootCause: kb.CLinkDown,
	}
	hist.Add(rec)
	after := similar()
	if before.Len() != hist.Len()-1 || after.Len() != hist.Len() {
		t.Fatalf("similar-incidents forks hold %d then %d records, history %d", before.Len(), after.Len(), hist.Len())
	}
	if hits := after.Search(rec.Text(), 1); len(hits) != 1 || hits[0].ID != rec.ID {
		t.Fatalf("new record not retrievable from the similar-incidents index: %v", hits)
	}
	pred := baseline.Train(hist, currentKB(), emb)
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
