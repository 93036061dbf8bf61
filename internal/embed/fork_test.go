package embed

import (
	"fmt"
	"reflect"
	"testing"
)

// Like the memo tests, the fork tests are not parallel: they toggle the
// process-wide embed cache and reset the memo.

// forkCorpus returns n incident-like texts over a small vocabulary, so
// some texts repeat (memo hits during the build) and LSH buckets hold
// several vectors each.
func forkCorpus(n int) (ids, texts []string) {
	causes := []string{"packet loss", "fiber cut", "config push", "router crash", "congestion", "fcs errors", "latency spike"}
	places := []string{"us-east", "eu-west", "web tier", "backbone", "pod 3"}
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("inc-%03d", i))
		texts = append(texts, fmt.Sprintf("%s in %s after %s", causes[i%len(causes)], places[i%len(places)], causes[(i/5)%len(causes)]))
	}
	return ids, texts
}

func buildStore(ids, texts []string) *Store {
	s := NewStore(NewDomainEmbedder(128))
	for i := range ids {
		s.Add(ids[i], texts[i])
	}
	return s
}

// storeOp is one call of the sequence a fork and a fresh build must
// answer alike; it returns the call's hits (nil for Add).
type storeOp struct {
	name string
	do   func(s *Store) []Hit
}

func forkOps(texts []string) []storeOp {
	return []storeOp{
		{"Search novel", func(s *Store) []Hit { return s.Search("packet drops in the web tier after deploy", 5) }},
		{"SearchANN novel", func(s *Store) []Hit { return s.SearchANN("router wedged in pod 3 watchdog reset", 5) }},
		{"Search stored text", func(s *Store) []Hit { return s.Search(texts[3], 3) }},
		{"SearchANN stored text", func(s *Store) []Hit { return s.SearchANN(texts[10], 4) }},
		{"Add new", func(s *Store) []Hit { s.Add("inc-new", "checksum corruption on optics in eu-west"); return nil }},
		{"SearchANN after Add", func(s *Store) []Hit { return s.SearchANN("crc errors on a transceiver in eu-west", 5) }},
		{"Add replace", func(s *Store) []Hit { s.Add("inc-007", "blackholed traffic after rollout"); return nil }},
		{"Search after replace", func(s *Store) []Hit { return s.Search("traffic blackhole after a rollout", 3) }},
		{"SearchANN repeat", func(s *Store) []Hit { return s.SearchANN("router wedged in pod 3 watchdog reset", 5) }},
	}
}

// TestStoreForkMatchesFreshBuild: a fork of a frozen 150-record store
// and a store built afresh from the same texts answer one sequence of
// Search, SearchANN and Add calls with equal hits, with the embed cache
// on and off, and with the memo emptied (invalidated, as reaching its
// bound does) between build and fork or in the middle of the sequence.
// The frozen store is untouched by the fork's Adds: a second fork still
// matches a fresh build.
func TestStoreForkMatchesFreshBuild(t *testing.T) {
	defer SetEmbedCacheEnabled(embedCacheEnabled.Load())
	ids, texts := forkCorpus(150)
	for _, cached := range []bool{true, false} {
		for _, invalidate := range []string{"never", "before fork", "mid sequence"} {
			t.Run(fmt.Sprintf("cache=%v/invalidate=%s", cached, invalidate), func(t *testing.T) {
				SetEmbedCacheEnabled(cached)
				resetMemo()
				frozen := buildStore(ids, texts).Freeze()
				if invalidate == "before fork" {
					resetMemo()
				}
				for round := 0; round < 2; round++ {
					fork, fresh := frozen.Fork(), buildStore(ids, texts)
					for i, op := range forkOps(texts) {
						if invalidate == "mid sequence" && i == 4 {
							resetMemo()
						}
						got, want := op.do(fork), op.do(fresh)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("round %d, %s: fork hits %v, fresh %v", round, op.name, got, want)
						}
					}
					if fork.Len() != fresh.Len() {
						t.Fatalf("round %d: fork has %d vectors, fresh %d", round, fork.Len(), fresh.Len())
					}
				}
				if frozen.Len() != len(ids) {
					t.Fatalf("frozen store grew to %d vectors through its forks", frozen.Len())
				}
			})
		}
	}
}

func TestForkOfUnfrozenStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Fork of a store that was never frozen did not panic")
		}
	}()
	buildStore(forkCorpus(3)).Fork()
}
