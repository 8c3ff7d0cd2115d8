package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runRecord is one child run as the parent recorded it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]value  `json:"metrics"`
	Outputs   map[string]string `json:"outputs"`
}

// stat summarizes one metric over a set's runs of one workload.
type stat struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run noise a bound must clear.
	Spread float64 `json:"spread"`
}

// runSet is one full set of untraced runs.
type runSet struct {
	Runs    []runRecord                `json:"runs"`
	Summary map[string]map[string]stat `json:"summary"` // workload -> metric
}

// boundRow justifies one (workload, metric) bound from the measured sets.
type boundRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Bound    float64 `json:"bound"`
	// MaxSpread is the largest set spread; it should stay under a third
	// of the bound.
	MaxSpread float64 `json:"max_spread"`
	// MedianDrift is how much worse the later sets' medians read than
	// the first set's, as a share of it; it must stay under the bound.
	MedianDrift float64 `json:"median_drift"`
	OK          bool    `json:"ok"`
}

// hostInfo is the hardware and toolchain a record was measured on.
type hostInfo struct {
	CPU      string  `json:"cpu"`
	NProc    int     `json:"nproc"`
	Go       string  `json:"go"`
	OSArch   string  `json:"os_arch"`
	StealPct float64 `json:"steal_pct"`
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "" where
// there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// record is what -out writes and -compare reads.
type record struct {
	Command string      `json:"command"`
	Host    hostInfo    `json:"host"`
	Seconds float64     `json:"seconds"`
	Sets    []runSet    `json:"sets"`
	Traced  []runRecord `json:"traced,omitempty"`
	Bounds  []boundRow  `json:"bounds,omitempty"`
}

// orchestrate runs every (workload, run) in its own child process —
// set-up cost, the live heap and the fleet's process-wide environment
// cache must not leak from one run into the next — and summarizes them.
// It reports whether every run passed its checks.
func orchestrate(names []string, seed uint64, seconds float64, runs, sets int, trace bool, out string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	rec := record{
		Command: strings.Join(append([]string{"bench"}, os.Args[1:]...), " "),
		Host: hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(),
			OSArch: runtime.GOOS + "/" + runtime.GOARCH},
		Seconds: seconds,
	}
	before, haveStat := readProcStat()
	ok := true
	for s := 0; s < sets; s++ {
		var set runSet
		for _, w := range names {
			for i := 0; i < runs; i++ {
				rr, err := child(exe, w, seed+uint64(i), seconds, false)
				if err != nil {
					return false, err
				}
				ok = ok && rr.Correct
				set.Runs = append(set.Runs, rr)
			}
		}
		set.Summary = summarize(set.Runs)
		rec.Sets = append(rec.Sets, set)
	}
	if trace {
		for _, w := range names {
			rr, err := child(exe, w, seed, seconds, true)
			if err != nil {
				return false, err
			}
			ok = ok && rr.Correct
			rec.Traced = append(rec.Traced, rr)
		}
	}
	if after, have := readProcStat(); haveStat && have {
		rec.Host.StealPct = stealPct(before, after)
	}
	if bench, err := loadBenchmark("BENCHMARK.json"); err == nil {
		rec.Bounds = justifyBounds(rec.Sets, bench)
	}
	printRecord(os.Stdout, rec)
	if out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// child runs one workload in a fresh process of this binary, echoing
// its report to stderr, and parses its result line.
func child(exe, workload string, seed uint64, seconds float64, trace bool) (runRecord, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, os.Stderr)
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return runRecord{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	rr, perr := parseChild(stdout.Bytes())
	if perr != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: %v (exit: %v)", workload, seed, perr, err)
	}
	rr.Workload, rr.Seed = workload, seed
	rr.WallS = time.Since(start).Seconds()
	return rr, nil
}

// parseChild reads a run's output: the outputs line and the final
// result line.
func parseChild(out []byte) (runRecord, error) {
	var rr runRecord
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, outputsPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &rr.Outputs); err != nil {
				return runRecord{}, fmt.Errorf("outputs line: %w", err)
			}
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		return runRecord{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return runRecord{}, fmt.Errorf("no result line (last line %q)", last)
	}
	rr.Correct, rr.Attempted, rr.Failed, rr.Metrics = res.Correct, res.Attempted, res.Failed, res.Metrics
	return rr, nil
}

// summarize computes each workload's per-metric statistics.
func summarize(runs []runRecord) map[string]map[string]stat {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, rr := range runs {
		if values[rr.Workload] == nil {
			values[rr.Workload] = map[string][]float64{}
		}
		for name, v := range rr.Metrics {
			values[rr.Workload][name] = append(values[rr.Workload][name], v.Value)
			units[name] = v.Unit
		}
	}
	out := map[string]map[string]stat{}
	for w, metrics := range values {
		out[w] = map[string]stat{}
		for name, vs := range metrics {
			q1, med, q3 := quartiles(vs)
			out[w][name] = stat{Unit: units[name], N: len(vs), Median: med, Q1: q1, Q3: q3, Spread: spread(vs)}
		}
	}
	return out
}

// benchMetric is one BENCHMARK.json metric entry.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchmark(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// worseBy is how much worse b reads than a, as a share of a: positive
// when worse, negative when better.
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		return -d
	}
	return d
}

// justifyBounds checks every end-to-end bound against the measured
// sets: the spread must stay under a third of the bound, and no later
// set's median may read worse than the first's by more than the bound.
func justifyBounds(sets []runSet, bench benchmarkFile) []boundRow {
	if len(sets) == 0 {
		return nil
	}
	var rows []boundRow
	for _, w := range sortedKeys(sets[0].Summary) {
		for _, m := range bench.EndToEnd {
			row := boundRow{Workload: w, Metric: m.Name, Bound: m.Bound}
			first := sets[0].Summary[w][m.Name]
			for _, s := range sets {
				st := s.Summary[w][m.Name]
				row.MaxSpread = math.Max(row.MaxSpread, st.Spread)
				row.MedianDrift = math.Max(row.MedianDrift, worseBy(m.Better, first.Median, st.Median))
			}
			// setup_s is exempt from the spread rule: its noise is the
			// hypervisor's, and only its median is gated.
			row.OK = row.MedianDrift <= m.Bound && (m.Name == "setup_s" || row.MaxSpread <= m.Bound/3)
			rows = append(rows, row)
		}
	}
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printRecord prints each set's summary, the traced runs and the bound
// check.
func printRecord(w io.Writer, rec record) {
	for i, set := range rec.Sets {
		fmt.Fprintf(w, "set %d\n", i+1)
		for _, wl := range sortedKeys(set.Summary) {
			fmt.Fprintf(w, "  %s\n", wl)
			for _, m := range endToEnd {
				st := set.Summary[wl][m.Name]
				fmt.Fprintf(w, "    %-18s %12.6g %-4s [%.6g, %.6g] spread %.2f%% (n=%d)\n",
					m.Name, st.Median, m.Unit, st.Q1, st.Q3, 100*st.Spread, st.N)
			}
		}
	}
	for _, rr := range rec.Traced {
		fmt.Fprintf(w, "traced %s (seed %d): %d checks, %d failed\n", rr.Workload, rr.Seed, rr.Attempted, rr.Failed)
		for _, name := range sortedKeys(rr.Metrics) {
			if v := rr.Metrics[name]; v.Value != 0 {
				fmt.Fprintf(w, "    %-44s %14.6g %s\n", name, v.Value, v.Unit)
			}
		}
	}
	for _, b := range rec.Bounds {
		verdict := "ok"
		if !b.OK {
			verdict = "TOO TIGHT"
		}
		fmt.Fprintf(w, "bound %-6s %-16s %5.1f%%: max spread %.2f%%, median drift %+.2f%%  %s\n",
			b.Workload, b.Metric, 100*b.Bound, 100*b.MaxSpread, 100*b.MedianDrift, verdict)
	}
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// untracedRuns pools a workload's untraced runs across a record's sets.
func untracedRuns(rec record, workload string) []runRecord {
	var out []runRecord
	for _, s := range rec.Sets {
		for _, rr := range s.Runs {
			if rr.Workload == workload {
				out = append(out, rr)
			}
		}
	}
	return out
}

func metricValues(runs []runRecord, name string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, rr := range runs {
		if v, ok := rr.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict labels one (workload, metric) pair. base and head hold one
// value per run, runs paired by position (same seed order).
//
//   - unresolved: a side's spread exceeds the bound, unless every head
//     run reads better (improved) or worse (worse) than every base run;
//   - worse: the head median reads worse than the base median by more
//     than the bound;
//   - improved: the head median reads better by more than the base's
//     interquartile range, and the head wins at least nine tenths of the
//     pairs (ties count for neither);
//   - unchanged otherwise.
func verdict(better string, bound float64, base, head []float64) string {
	if len(base) == 0 || len(head) == 0 {
		return "missing"
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	worseThan := func(x, y float64) bool { return worseBy(better, y, x) > 0 }
	allBetter, allWorse := true, true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && worseThan(b, h)
			allWorse = allWorse && worseThan(h, b)
		}
	}
	if math.Max(spread(base), spread(head)) > bound {
		switch {
		case allBetter:
			return "improved"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	change := worseBy(better, bmed, hmed)
	if change > bound {
		return "worse"
	}
	pairs, wins := min(len(base), len(head)), 0
	for i := 0; i < pairs; i++ {
		if worseThan(base[i], head[i]) {
			wins++
		}
	}
	if change < 0 && math.Abs(hmed-bmed) > bq3-bq1 && 10*wins >= 9*pairs {
		return "improved"
	}
	return "unchanged"
}

// changedOutputs lists the output hashes that differ between runs of the
// same seed.
func changedOutputs(base, head []runRecord) []string {
	want := map[uint64]map[string]string{}
	for _, rr := range base {
		want[rr.Seed] = rr.Outputs
	}
	var out []string
	for _, rr := range head {
		for k, h := range rr.Outputs {
			if b, ok := want[rr.Seed][k]; ok && b != h && !slices.Contains(out, k) {
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// compareRecords prints one row per workload: each end-to-end metric's
// base and head median with quartiles and its label, then whether any
// output changed.
func compareRecords(w io.Writer, benchPath, basePath, headPath string) error {
	bench, err := loadBenchmark(benchPath)
	if err != nil {
		return fmt.Errorf("reading bounds: %w", err)
	}
	base, err := readRecord(basePath)
	if err != nil {
		return err
	}
	head, err := readRecord(headPath)
	if err != nil {
		return err
	}
	for _, wl := range workloadNames() {
		b, h := untracedRuns(base, wl), untracedRuns(head, wl)
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (%d base runs, %d head runs)\n", wl, len(b), len(h))
		for _, m := range bench.EndToEnd {
			bv, hv := metricValues(b, m.Name), metricValues(h, m.Name)
			label := verdict(m.Better, m.Bound, bv, hv)
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			fmt.Fprintf(w, "  %-18s %12.6g [%.6g, %.6g] -> %12.6g [%.6g, %.6g] %s  %+.2f%% worse, bound %.1f%%: %s\n",
				m.Name, bmed, bq1, bq3, hmed, hq1, hq3, m.Unit, 100*worseBy(m.Better, bmed, hmed), 100*m.Bound, label)
		}
		if changed := changedOutputs(b, h); len(changed) > 0 {
			fmt.Fprintf(w, "  outputs changed: %s\n", strings.Join(changed, ", "))
		} else {
			fmt.Fprintf(w, "  outputs identical\n")
		}
	}
	return nil
}
