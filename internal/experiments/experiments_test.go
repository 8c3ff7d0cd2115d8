package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/testenv"
)

var (
	sharedOnce sync.Once
	sharedRuns *Runs
	sharedErr  error
)

// testRuns returns one package-wide run cache over the shared fixtures
// with a short drive (enough samples for shape checks, fast enough for
// CI). The first caller prewarms the whole configuration matrix across
// workers; every experiment harness then reads the cache, so each
// configuration simulates exactly once per test binary.
func testRuns(t *testing.T) *Runs {
	t.Helper()
	sharedOnce.Do(func() {
		env := &Env{Scenario: testenv.Scenario(), Map: testenv.Map()}
		sharedRuns = NewRuns(env, 20*time.Second)
		sharedRuns.Workers = runtime.NumCPU()
		sharedErr = sharedRuns.Prewarm()
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedRuns
}

func TestFig5ProducesAllViolins(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Fig5(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, n := range fig5Nodes {
		if !strings.Contains(out, n) {
			t.Errorf("missing node %s in Fig5 output", n)
		}
	}
	for _, det := range autoware.Detectors() {
		if !strings.Contains(out, string(det)) {
			t.Errorf("missing detector %s panel", det)
		}
	}
	if strings.Contains(out, "(no samples)") {
		t.Error("some node had no samples")
	}
}

func TestTable3Runs(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Table3(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table III") || !strings.Contains(out, "13.5 fps") {
		t.Error("Table III output incomplete")
	}
	// The saturated regime must show image drops for SSD512.
	sat := out[strings.Index(out, "13.5 fps"):]
	if !strings.Contains(sat, "/image_raw") {
		t.Errorf("saturated regime shows no image drops:\n%s", sat)
	}
}

func TestFig6EndToEndVerdicts(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Fig6(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, p := range []string{"localization", "costmap_points", "costmap_vision_obj", "costmap_cluster_obj"} {
		if !strings.Contains(out, p) {
			t.Errorf("missing path %s", p)
		}
	}
	if !strings.Contains(out, "exceeded") {
		t.Error("no budget-exceeded verdict; Finding 2 not reproduced")
	}
}

func TestTable5And6(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Table5(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := Table6(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "vision_detection") || !strings.Contains(out, "Total") {
		t.Error("Table V incomplete")
	}
	if !strings.Contains(out, "with SSD512") {
		t.Error("Table VI incomplete")
	}
}

func TestTable7AndFig7(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Table7(&sb, runs); err != nil {
		t.Fatal(err)
	}
	if err := Fig7(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, n := range []string{"SSD512", "YOLOv3-416", "euclidean_cluster", "ndt_matching", "imm_ukf_pda_tracker", "costmap_generator_obj"} {
		if strings.Count(out, n) < 2 {
			t.Errorf("node %s missing from Table VII/Fig 7", n)
		}
	}
}

func TestFig8ShowsContrast(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := Fig8(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "standalone") || !strings.Contains(out, "full system") {
		t.Error("Fig 8 output incomplete")
	}
}

func TestByName(t *testing.T) {
	for _, e := range All() {
		got, err := ByName(e.Name)
		if err != nil || got.Name != e.Name {
			t.Errorf("ByName(%s) = %v, %v", e.Name, got.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestExperimentNames pins the registry: nine experiments in paper
// order, fig5 first.
func TestExperimentNames(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("registry = %d experiments, want 9", len(all))
	}
	if all[0].Name != "fig5" {
		t.Errorf("first = %s", all[0].Name)
	}
}

// TestRunExperimentByName runs tab6 resolved by name over the shared
// runs and checks an unknown name is rejected.
func TestRunExperimentByName(t *testing.T) {
	tab6, err := ByName("tab6")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tab6.Run(&sb, testRuns(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table VI") {
		t.Errorf("tab6 output:\n%s", sb.String())
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestFindingsAllReproduced checks the paper's five findings on the
// shared 20 s runs: every one must read REPRODUCED.
func TestFindingsAllReproduced(t *testing.T) {
	findings, err := Findings(testRuns(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 5 {
		t.Fatalf("findings = %d", len(findings))
	}
	for _, f := range findings {
		if !strings.Contains(f, "REPRODUCED") {
			t.Errorf("finding not reproduced: %s", f)
		}
	}
}

// TestRunsRejectBogusDetector checks that a run cache serves a recorded
// stack for a real detector and an error for an unknown one.
func TestRunsRejectBogusDetector(t *testing.T) {
	runs := testRuns(t)
	s, err := runs.Full(autoware.DetectorSSD300)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder.NodeLatency("ndt_matching").Count == 0 {
		t.Error("stack run produced no samples")
	}
	if _, err := runs.Full("bogus"); err == nil {
		t.Error("bogus detector should fail")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Header: []string{"A", "Blong"}}
	tbl.Add("x", 1.5)
	tbl.Add("longer", "v")
	var sb strings.Builder
	tbl.Write(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All lines same width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[0]) {
			t.Errorf("ragged table:\n%s", sb.String())
		}
	}
	if !strings.Contains(sb.String(), "1.50") {
		t.Error("float formatting missing")
	}
}

func TestViolinRendering(t *testing.T) {
	var sb strings.Builder
	Violin(&sb, "test", []float64{1, 2, 2, 3, 10}, 0, 10, 20)
	out := sb.String()
	if !strings.Contains(out, "mean=3.6") {
		t.Errorf("violin stats wrong:\n%s", out)
	}
	sb.Reset()
	Violin(&sb, "empty", nil, 0, 10, 20)
	if !strings.Contains(sb.String(), "no samples") {
		t.Error("empty violin should say so")
	}
}

func TestWriteCSV(t *testing.T) {
	runs := testRuns(t)
	dir := t.TempDir()
	if err := WriteCSV(dir, runs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"fig5_latency.csv", "fig6_paths.csv", "tab5_utilization.csv",
		"tab6_power.csv", "fig8_modes.csv",
	} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := strings.Count(string(data), "\n")
		if lines < 2 {
			t.Errorf("%s has only %d lines", name, lines)
		}
	}
	// fig5 carries one row per callback: thousands of samples.
	data, _ := os.ReadFile(filepath.Join(dir, "fig5_latency.csv"))
	if strings.Count(string(data), "\n") < 1000 {
		t.Errorf("fig5 csv suspiciously small: %d rows", strings.Count(string(data), "\n"))
	}
}

func TestSceneDependence(t *testing.T) {
	runs := testRuns(t)
	var sb strings.Builder
	if err := SceneDependence(&sb, runs); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, n := range []string{"imm_ukf_pda_tracker", "costmap_generator_obj"} {
		if !strings.Contains(out, n) {
			t.Errorf("missing %s", n)
		}
	}
	if strings.Contains(out, "n/a") {
		t.Errorf("insufficient samples:\n%s", out)
	}
}
