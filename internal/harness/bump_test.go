package harness_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/embed"
	"repro/internal/harness"
	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/replayer"
	"repro/internal/scenarios"
)

// bumpingEmbedder is the domain embedder with a side effect: every Embed
// call runs bump, the way a fleet learning loop publishing knowledge
// (kb.Bump) can land in the middle of a session. Each one carries a
// fresh name, so the process-wide embedding memo is cold for it and the
// session's own index builds call Embed.
type bumpingEmbedder struct {
	embed.Embedder
	name string
	bump func()
}

var bumpingEmbedders atomic.Int64

func newBumpingEmbedder(bump func()) *bumpingEmbedder {
	return &bumpingEmbedder{
		Embedder: embed.NewDomainEmbedder(128),
		name:     fmt.Sprintf("domain-network/bump-test-%d", bumpingEmbedders.Add(1)),
		bump:     bump,
	}
}

func (e *bumpingEmbedder) Name() string { return e.name }

func (e *bumpingEmbedder) Embed(text string) []float32 {
	e.bump()
	return e.Embedder.Embed(text)
}

// bumpExports runs four observed one-shot sessions on a fresh history
// (so each run builds its retrieval indexes inside its first session)
// at two workers, with emb as the runner's embedder, and returns the
// -trace-out and -metrics-out bytes.
func bumpExports(t *testing.T, kbase *kb.KB, emb embed.Embedder) (events, metrics string) {
	t.Helper()
	r := &harness.OneShotRunner{
		History:  replayer.Generate(replayer.Options{N: 60, Seed: 11}).History,
		KBase:    kbase,
		Embedder: emb,
	}
	sink := obs.NewLogSink()
	for _, tr := range harness.RunPoolObserved(&scenarios.GrayLink{}, r, 4, 2, 5, sink) {
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
	}
	var ev, m bytes.Buffer
	if err := sink.WriteEvents(&ev); err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	return ev.String(), m.String()
}

// TestKBBumpLeavesSessionExportsUnchanged: a knowledge-base update
// during a session, on the session's goroutine or on another one,
// changes none of that session's events or metrics. Run it under -race.
func TestKBBumpLeavesSessionExportsUnchanged(t *testing.T) {
	t.Parallel()
	kbase := currentKB()
	wantEv, wantM := bumpExports(t, kbase, newBumpingEmbedder(func() {}))

	t.Run("in-session", func(t *testing.T) {
		other := kb.New()
		var mu sync.Mutex // the pool's two workers share the embedder
		ev, m := bumpExports(t, kbase, newBumpingEmbedder(func() {
			mu.Lock()
			other.Bump()
			mu.Unlock()
		}))
		if other.Version() == 1 {
			t.Fatal("setup: the sessions never embedded a text, so nothing bumped")
		}
		checkSameExports(t, ev, m, wantEv, wantM)
	})
	t.Run("other-goroutine", func(t *testing.T) {
		other := kb.New()
		var started atomic.Bool
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					other.Bump()
				}
			}
		}()
		ev, m := bumpExports(t, kbase, newBumpingEmbedder(func() { started.Store(true) }))
		close(stop)
		<-done
		if !started.Load() {
			t.Fatal("setup: the sessions never embedded a text")
		}
		checkSameExports(t, ev, m, wantEv, wantM)
	})
}

func checkSameExports(t *testing.T, ev, m, wantEv, wantM string) {
	t.Helper()
	for _, exp := range []struct{ name, got, want string }{{"event log", ev, wantEv}, {"metrics", m, wantM}} {
		got, want := strings.Split(exp.got, "\n"), strings.Split(exp.want, "\n")
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Errorf("a KB bump changed the session %s from line %d:\n got %q\nwant %q",
					exp.name, i+1, strings.Join(got[i:min(i+1, len(got))], ""), strings.Join(want[i:min(i+1, len(want))], ""))
				break
			}
		}
	}
}
