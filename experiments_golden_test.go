package aiops

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
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
// prints it, at the goldens' trials and seed.
func renderExperiment(e experiments.Experiment, workers int) string {
	trials := 2
	if e.ID == "e17" {
		trials = 1
	}
	var b bytes.Buffer
	e.Render(&b, experiments.Params{Trials: trials, Seed: 42, Workers: workers})
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
			got := renderExperiment(e, 2)
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
// worker with the route cache and the embedding memo off: neither the
// worker count nor the caches may change a byte. It toggles
// process-wide switches, so it must not call t.Parallel.
func TestExperimentGoldensCachesOff(t *testing.T) {
	setCaches(false)
	defer setCaches(true)
	for _, e := range experiments.Registry {
		t.Run(e.ID, func(t *testing.T) {
			skipSocketHeavy(t, e.ID)
			checkExperimentGolden(t, e.ID, renderExperiment(e, 1))
		})
	}
}
