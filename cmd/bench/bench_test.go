package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/world"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(tc.n, tailCandidates); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(1000, []float64{99, 95}); got != 99 {
		t.Errorf("tailPercentile(1000, p99 first) = %v, want 99", got)
	}
	if got := tailPercentile(999, []float64{99, 95}); got != 95 {
		t.Errorf("tailPercentile(999, p99 first) = %v, want 95", got)
	}
}

// Expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.9, 3.4}, [3]float64{2.9, 3.1, 3.4}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
		{[]float64{0.5, 0.25, 1.5, 1.0, 0.75}, [3]float64{0.375, 0.75, 1.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(tc.v)
		if got := [3]float64{q1, med, q3}; !approx(got[:], tc.want[:]) {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func approx(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return len(a) == len(b)
}

func TestFleetScheduleReproducedPerSeed(t *testing.T) {
	const window = 10 * time.Second
	a := fleetSchedule(7, window, 20)
	if b := fleetSchedule(7, window, 20); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew two different schedules")
	}
	if c := fleetSchedule(8, window, 20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want rate x window = 200", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d due %v before arrival %d at %v", i, a[i], i-1, a[i-1])
		}
	}
	// The mean gap matches the rate within sampling error.
	if mean := a[len(a)-1].Seconds() / float64(len(a)); math.Abs(mean-0.05) > 0.01 {
		t.Errorf("mean inter-arrival %.4f s, want about 0.05 s", mean)
	}
	// No fresh job reuses the hot job's key (seed 0) or another fresh
	// job's, the same seed draws the same jobs, and the job count depends
	// on the window alone.
	if n := freshJobs(10); n != 4 {
		t.Fatalf("freshJobs(10) = %d, want 4", n)
	}
	if n := freshJobs(1); n != fleetWorkers {
		t.Fatalf("freshJobs(1) = %d, want one per worker", n)
	}
	if !reflect.DeepEqual(freshSeeds(7, 4), freshSeeds(7, 4)) {
		t.Fatal("same seed drew two different sets of fresh jobs")
	}
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		for _, f := range freshSeeds(seed, 4) {
			if f == 0 || seen[f] {
				t.Fatalf("freshSeeds(%d) drew %d, zero or drawn before", seed, f)
			}
			seen[f] = true
		}
	}
}

func TestTrafficRealizationsShareTheCity(t *testing.T) {
	def := world.DefaultScenarioConfig()
	if got := worldConfig(1, 0); got != def {
		t.Fatal("realization 0 of seed 1 is not the scripted drive")
	}
	if got := worldConfig(5, 0).Seed; got != def.Seed^seedMix(5) {
		t.Fatalf("realization 0 of seed 5 has traffic seed %#x, want the seed's first draw", got)
	}
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 20; seed++ {
		for i := 0; i < 4; i++ {
			wc := worldConfig(seed, i)
			if seen[wc.Seed] {
				t.Fatalf("worldConfig(%d, %d) repeats traffic seed %#x", seed, i, wc.Seed)
			}
			seen[wc.Seed] = true
			if wc.Seed = def.Seed; wc != def {
				t.Fatalf("worldConfig(%d, %d) changes more than the traffic seed", seed, i)
			}
		}
	}
	// One HD map serves every realization only if the city and the ego
	// route it is built from stay the same.
	a, err := world.BuildScenario(worldConfig(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := world.BuildScenario(worldConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.City, b.City) || !reflect.DeepEqual(a.EgoRoute, b.EgoRoute) {
		t.Fatal("traffic realizations of one seed differ in city or ego route")
	}
}

func TestParseProcStat(t *testing.T) {
	before := []byte("cpu  100 5 50 800 10 1 4 30 20 0\ncpu0 50 2 25 400 5 0 2 15 10 0\nintr 1 2 3\n")
	after := []byte("cpu  160 5 70 900 10 1 4 50 20 0\n")
	a, err := parseProcStat(before)
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 30 {
		t.Fatalf("parsed %+v, want total 1000 (guest excluded) steal 30", a)
	}
	b, err := parseProcStat(after)
	if err != nil {
		t.Fatal(err)
	}
	if got := stealPct(a, b); math.Abs(got-100*20.0/200) > 1e-12 {
		t.Errorf("steal = %v%%, want 10%%", got)
	}
	for _, bad := range []string{"cpu 1 2 3\n", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 x 4 5 6 7 8\n"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
}

func TestVerdictAppliesBounds(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	shift := func(vs []float64, by float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * by
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		better string
		bound  float64
		head   []float64
		want   string
	}{
		{"identical", "lower", 0.05, base, "unchanged"},
		{"within bound", "lower", 0.05, shift(base, 1.03), "unchanged"},
		{"past bound", "lower", 0.05, shift(base, 1.10), "worse"},
		{"faster", "lower", 0.05, shift(base, 0.90), "improved"},
		{"higher is better", "higher", 0.05, shift(base, 0.90), "worse"},
		{"noisy head", "lower", 0.01, []float64{90, 110, 95, 105, 100, 92, 108, 97, 103, 100}, "unresolved"},
		{"noisy but all better", "lower", 0.01, []float64{50, 60, 55, 52, 58, 51, 59, 54, 56, 53}, "improved"},
	} {
		if got := verdict(tc.better, tc.bound, base, tc.head); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestParseGoldens(t *testing.T) {
	got, err := parseGoldens([]byte("contention     sha256=9ad3\ncrash-recover  sha256=e566\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]string{"contention": "9ad3", "crash-recover": "e566"}; !reflect.DeepEqual(got, want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	for _, bad := range []string{"contention 9ad3\n", "contention sha256=1 extra\n"} {
		if _, err := parseGoldens([]byte(bad)); err == nil {
			t.Errorf("parseGoldens(%q) accepted a malformed line", bad)
		}
	}
	data, err := os.ReadFile("../../" + goldensFile)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := parseGoldens(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range chaosScenarios {
		if len(pinned[name]) != 64 {
			t.Errorf("%s: no pinned sha256 in %s", name, goldensFile)
		}
	}
}

func TestParseChildReadsOutputsAndResult(t *testing.T) {
	out := "drive seed=1 trace=false: 2 checks, 0 failed\n" +
		"  setup_s 3.1 s\n" +
		outputsPrefix + `{"drive.fingerprint":"ab"}` + "\n" +
		`{"correct":true,"attempted":2,"failed":0,"metrics":{"setup_s":{"value":3.1,"unit":"s"}}}` + "\n"
	rr, err := parseChild([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Correct || rr.Attempted != 2 || rr.Metrics["setup_s"].Value != 3.1 || rr.Outputs["drive.fingerprint"] != "ab" {
		t.Errorf("parsed %+v", rr)
	}
	if _, err := parseChild([]byte("build failed\n")); err == nil {
		t.Error("output without a result line parsed")
	}
}

// BENCHMARK.json and the tables the benchmark reports from must name the
// same workloads and metrics with the same units and directions.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bench, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	same := func(kind string, listed []benchMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
		}
		for i := 0; i < min(len(listed), len(defs)); i++ {
			l, d := listed[i], defs[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, benchmark %s %s %s",
					kind, i, l.Name, l.Unit, l.Better, d.Name, d.Unit, d.Better)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer())
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name != "setup_s" && m.Bound > bench.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v above setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if !strings.HasPrefix(bench.EndToEnd[0].Name, "setup_s") {
		t.Error("setup_s must be the first end-to-end metric")
	}
}
