package experiments_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/testenv"
)

// csvArtifacts is the full inventory WriteCSV produces.
var csvArtifacts = []string{
	"fig5_latency.csv",
	"fig6_paths.csv",
	"tab5_utilization.csv",
	"tab6_power.csv",
	"fig8_modes.csv",
}

// exportCSV runs the findings, then the whole configuration matrix, at
// the given worker count (serial runs warm lazily; Findings simulates
// its three configurations and WriteCSV prewarms the rest
// concurrently), and returns the findings and the bytes of every CSV
// artifact.
func exportCSV(t *testing.T, workers int, duration time.Duration) ([]string, map[string][]byte) {
	t.Helper()
	env := &experiments.Env{Scenario: testenv.Scenario(), Map: testenv.Map()}
	runs := experiments.NewRuns(env, duration)
	runs.Workers = workers
	findings, err := experiments.Findings(runs)
	if err != nil {
		t.Fatalf("Findings (workers=%d): %v", workers, err)
	}
	dir := t.TempDir()
	if err := experiments.WriteCSV(dir, runs); err != nil {
		t.Fatalf("WriteCSV (workers=%d): %v", workers, err)
	}
	out := make(map[string][]byte, len(csvArtifacts))
	for _, name := range csvArtifacts {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s (workers=%d): %v", name, workers, err)
		}
		if len(bytes.Split(b, []byte("\n"))) < 3 {
			t.Fatalf("%s (workers=%d) is trivial: %q", name, workers, b)
		}
		out[name] = b
	}
	return findings, out
}

// TestParallelRunsAreByteIdentical is the tentpole's determinism
// regression: the findings and the exported CSV artifacts must match
// byte-for-byte between a serial (lazily warmed) run and a 4-worker
// prewarmed run. Host parallelism may only change wall-clock time,
// never a single virtual-time sample.
func TestParallelRunsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix simulation in -short mode")
	}
	// Past the 3 s warmup so every artifact has real samples.
	const duration = 6 * time.Second
	serialFindings, serial := exportCSV(t, 1, duration)
	parallelFindings, parallel := exportCSV(t, 4, duration)
	if !slices.Equal(serialFindings, parallelFindings) {
		t.Errorf("findings differ between workers=1 and workers=4:\n%q\n%q", serialFindings, parallelFindings)
	}
	for _, name := range csvArtifacts {
		if !bytes.Equal(serial[name], parallel[name]) {
			t.Errorf("%s differs between workers=1 and workers=4 (serial %d bytes, parallel %d bytes)",
				name, len(serial[name]), len(parallel[name]))
		}
	}
}

// TestPrewarmCoversTable3Cache verifies Prewarm populates the
// saturated-camera cache Table III(b) reads, so rendering after a
// prewarm does no further simulation.
func TestPrewarmCoversTable3Cache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	env := &experiments.Env{Scenario: testenv.Scenario(), Map: testenv.Map()}
	runs := experiments.NewRuns(env, 4*time.Second)
	runs.Workers = 4
	if err := runs.Prewarm(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	start := time.Now()
	if err := experiments.Table3(&buf, runs); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Table3 after prewarm took %v; should be a cache read", elapsed)
	}
	if buf.Len() == 0 {
		t.Error("Table3 produced no output")
	}
}
