package aiops

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// Every experiment table is pinned byte for byte. The goldens under
// testdata/experiments are `benchgen -exp N -trials 2 -seed 42
// -workers 2` (E17 at -trials 1), one file per experiment. A program
// change that keeps its outputs passes unedited; regenerate only when
// an output change is intended, with
//
//	UPDATE_GOLDEN=1 go test -run TestExperimentGoldens .
//
// and review the diff, never to silence a failure. -short skips the
// socket-heavy E15 (live HTTP) and E16 (kill/restart chaos).

func experimentGoldenPath(id string) string {
	return filepath.Join("testdata", "experiments", id+".txt")
}

// renderExperiment renders one experiment's stdout block as benchgen
// prints it, at the goldens' trials and seed, into sink when it is not
// nil.
func renderExperiment(e experiments.Experiment, workers int, sink *obs.Sink) string {
	trials := 2
	if e.ID == "e17" {
		trials = 1
	}
	var b bytes.Buffer
	e.Render(&b, experiments.Params{Trials: trials, Seed: 42, Workers: workers, Obs: sink})
	return b.String()
}

func skipSocketHeavy(t *testing.T, id string) {
	t.Helper()
	if testing.Short() && (id == "e15" || id == "e16") {
		t.Skip("socket-heavy experiment")
	}
}

func checkExperimentGolden(t *testing.T, id, got string) {
	t.Helper()
	want, err := os.ReadFile(experimentGoldenPath(id))
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestExperimentGoldens .)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from its golden:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
	}
}

// TestExperimentGoldens renders E1–E18 at -workers 2, caches on.
func TestExperimentGoldens(t *testing.T) {
	t.Parallel()
	for _, e := range experiments.Registry {
		t.Run(e.ID, func(t *testing.T) {
			skipSocketHeavy(t, e.ID)
			got := renderExperiment(e, 2, nil)
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(experimentGoldenPath(e.ID), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			checkExperimentGolden(t, e.ID, got)
		})
	}
}

// TestExperimentGoldensCachesOff renders every experiment again at one
// worker with the route cache and the embedding memo off, into a log
// sink: neither the worker count nor the caches may change a byte of
// the table or of the exports, so both must match the caches-on goldens
// (the table and testdata/experiments/eN.exports.sha256). It toggles
// process-wide switches, so it must not call t.Parallel.
func TestExperimentGoldensCachesOff(t *testing.T) {
	setCaches(false)
	defer setCaches(true)
	for _, e := range experiments.Registry {
		t.Run(e.ID, func(t *testing.T) {
			skipSocketHeavy(t, e.ID)
			sink := obs.NewLogSink()
			checkExperimentGolden(t, e.ID, renderExperiment(e, 1, sink))
			checkExportDigests(t, e.ID, 1, exportDigests(t, sink))
		})
	}
}

// TestExperimentExports pins the observability exports of E1–E18: each
// experiment is rendered into a log sink at two workers and at one, its
// stdout must still match the table golden, and the sha256 of the event
// log and of the metrics text must match
// testdata/experiments/eN.exports.sha256. UPDATE_GOLDEN=1 rewrites the
// digests from the two-worker render.
func TestExperimentExports(t *testing.T) {
	t.Parallel()
	for _, e := range experiments.Registry {
		t.Run(e.ID, func(t *testing.T) {
			skipSocketHeavy(t, e.ID)
			for _, workers := range []int{2, 1} {
				sink := obs.NewLogSink()
				checkExperimentGolden(t, e.ID, renderExperiment(e, workers, sink))
				got := exportDigests(t, sink)
				if workers == 2 && os.Getenv("UPDATE_GOLDEN") != "" {
					if err := os.WriteFile(exportDigestPath(e.ID), []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				checkExportDigests(t, e.ID, workers, got)
			}
		})
	}
}

func exportDigestPath(id string) string {
	return filepath.Join("testdata", "experiments", id+".exports.sha256")
}

// exportDigests is the content of an experiment's export digest file:
// the sha256 of what -trace-out and -metrics-out would write.
func exportDigests(t *testing.T, sink *obs.Sink) string {
	t.Helper()
	var b bytes.Buffer
	for _, exp := range []struct {
		name  string
		write func(io.Writer) error
	}{{"trace-out", sink.WriteEvents}, {"metrics-out", sink.WriteMetrics}} {
		h := sha256.New()
		if err := exp.write(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%x  %s\n", h.Sum(nil), exp.name)
	}
	return b.String()
}

func checkExportDigests(t *testing.T, id string, workers int, got string) {
	t.Helper()
	want, err := os.ReadFile(exportDigestPath(id))
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestExperimentExports .)", err)
	}
	if got != string(want) {
		t.Errorf("%s exports at %d workers drifted:\n--- got ---\n%s--- want ---\n%s", id, workers, got, want)
	}
}
