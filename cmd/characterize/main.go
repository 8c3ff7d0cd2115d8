// Command characterize regenerates the paper's evaluation: every table
// and figure (Figs. 5-8, Tables III, V, VI, VII), plus the findings
// checklist, from deterministic full-system runs.
//
// -exp findings writes only the five findings -exp all appends to the
// tables; -csv also exports the raw data behind the figures.
//
// Usage:
//
//	characterize [-exp all|findings|fig5|tab3|fig6|tab5|tab6|tab7|fig7|fig8|scene|tune|search]
//	             [-duration 60s] [-out report.txt] [-csv DIR] [-workers N]
//	             [-faults <scenario>] [-supervise] [-shed 100ms] [-guard]
//	             [-sched] [-seed 1] [-bench FILE]
//	             [-budget 12] [-space default|compact]
//
// -exp tune runs the scheduler auto-tuner instead of the paper tables:
// a clean profiling drive measures per-node criticality from lineage
// chains, then every seeded candidate schedule replays the chaos
// scenario named by -faults (default: contention) and the one with the
// lowest worst-path p99 wins. The full search is serialized to the
// -bench file when one is named (the committed record is
// BENCH_sched.json); candidate 0 is always the no-scheduler baseline,
// so the winner is never worse than not scheduling. -seed drives the
// candidate search; the whole procedure is deterministic.
//
// -sched forces the pinned contention-tuned schedule onto a -faults
// run (criticality profiled on the run's own baseline leg).
//
// -exp search runs the adversarial latency search: -budget seeded
// candidates — procedurally generated worlds (internal/world.Generate)
// plus sampled fault schedules — are evaluated against the scripted
// baseline drive, and the feasible candidate with the HIGHEST
// worst-path p99 wins. It is the tuner's mirror image: tune minimizes
// the tail, search hunts latency-budget violations to pin as
// regression scenarios. -space picks the sampling space, -seed drives
// every decision, and the full search is serialized to the -bench file
// when one is named (the committed record is BENCH_search.json). Same
// seed ⇒ byte-identical report and the same elected worst case.
//
// -guard attaches the input-integrity layer (internal/guard) to every
// run. For the paper tables the input is clean, so the guarded report
// is byte-identical to the unguarded one — the flag is the regression
// hook that proves the guard is free on clean streams. With -faults it
// forces the guard onto the scenario's faulted run.
//
// -workers bounds how many experiment configurations simulate
// concurrently (default: the number of CPUs; at least 1). Every
// configuration is an isolated virtual-time simulation, so the report
// is byte-identical for any worker count; only wall-clock time changes.
//
// -faults switches to the chaos characterization: instead of the paper
// tables, it runs the named fault scenario (baseline vs faulted over
// the same drive) and writes the side-by-side latency/drop/degradation
// report. Same seed + schedule ⇒ byte-identical report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/autoware"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/search"
	"repro/internal/world"
)

func main() {
	var names []string
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "experiment to run: all, findings, or one of "+strings.Join(names, ", "))
	duration := flag.Duration("duration", 60*time.Second, "virtual drive duration per configuration")
	out := flag.String("out", "", "write the report to this file instead of stdout")
	csvDir := flag.String("csv", "", "also export raw per-sample data as CSV files into this directory")
	workers := flag.Int("workers", runtime.NumCPU(), "max concurrent experiment configurations (results are identical for any value)")
	faultsFlag := flag.String("faults", "", "run a chaos scenario instead of the paper tables: "+strings.Join(scenario.Names(), ", "))
	detector := flag.String("detector", "YOLOv3-416", "detector configuration for the chaos scenario (-faults) and the adversarial search (-exp search)")
	supervise := flag.Bool("supervise", false, "force the supervision layer onto the chaos scenario's faulted run (-faults only)")
	shed := flag.Duration("shed", 0, "force this deadline-shedding budget onto the chaos scenario's faulted run (-faults only)")
	guard := flag.Bool("guard", false, "attach the input-integrity guard (no-op on the clean paper tables; forces the guard onto a -faults run)")
	schedFlag := flag.Bool("sched", false, "force the pinned contention-tuned schedule onto the chaos scenario's faulted run (-faults only)")
	seed := flag.Uint64("seed", 1, "candidate-search seed for -exp tune and -exp search")
	bench := flag.String("bench", "", "write the -exp tune/search record to this JSON file (without it no record is written)")
	budget := flag.Int("budget", 12, "evaluated candidates for -exp search, including the scripted baseline")
	space := flag.String("space", "default", "sampling space for -exp search: default or compact")
	flag.Parse()
	if *workers < 1 {
		fatal(fmt.Errorf("-workers %d: need at least 1", *workers))
	}
	parallel.SetMaxWorkers(*workers)

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	if *exp == "tune" {
		name := *faultsFlag
		if name == "" {
			name = scenario.NameContention
		}
		spec, err := scenario.ByName(name)
		if err != nil {
			fatal(err)
		}
		if min := spec.MinDuration(); *duration < min {
			fatal(fmt.Errorf("scenario %s needs -duration >= %v", spec.Name, min))
		}
		fmt.Fprintf(os.Stderr, "building environment (scenario + HD map)...\n")
		start := time.Now()
		rep, err := scenario.Tune(spec, autoware.Detector(*detector), *duration, *seed)
		if err != nil {
			fatal(err)
		}
		writeTuneReport(w, rep)
		writeBench(*bench, rep)
		// Tune's contract: candidate 0 is the no-scheduler baseline and
		// is always feasible, so the winner can never be worse. Treat a
		// violation as the bug it would be (sched-smoke relies on this).
		if rep.Best.P99 > rep.Baseline.P99 {
			fatal(fmt.Errorf("tuned p99 %.2f ms worse than baseline %.2f ms", rep.Best.P99, rep.Baseline.P99))
		}
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	if *exp == "search" {
		var sp world.ParamSpace
		switch *space {
		case "default":
			sp = world.DefaultSpace()
		case "compact":
			sp = world.CompactSpace()
		default:
			fatal(fmt.Errorf("unknown -space %q (have default, compact)", *space))
		}
		fmt.Fprintf(os.Stderr, "searching %d candidates (%s space, seed %d, %v per eval)...\n",
			*budget, *space, *seed, *duration)
		start := time.Now()
		rep, err := search.Run(search.Config{
			Space:     sp,
			SpaceName: *space,
			Seed:      *seed,
			Budget:    *budget,
			Duration:  *duration,
			Detector:  autoware.Detector(*detector),
		})
		if err != nil {
			fatal(err)
		}
		writeSearchReport(w, rep)
		writeBench(*bench, rep)
		// Search's contract, mirroring tune's: the scripted baseline is
		// always feasible, so the elected worst case can never be better
		// (lower-p99) than it. search-smoke relies on this.
		if rep.Worst.P99 < rep.Baseline.P99 {
			fatal(fmt.Errorf("worst p99 %.2f ms below baseline %.2f ms", rep.Worst.P99, rep.Baseline.P99))
		}
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	if *faultsFlag != "" {
		spec, err := scenario.ByName(*faultsFlag)
		if err != nil {
			fatal(err)
		}
		if *schedFlag {
			k := scenario.ContentionTunedKnobs()
			spec.Sched = &k
		}
		if *supervise {
			spec.Supervise = true
		}
		if *shed > 0 {
			spec.ShedBudget = *shed
		}
		if *guard {
			spec.Guard = true
		}
		if min := spec.MinDuration(); *duration < min {
			fatal(fmt.Errorf("scenario %s needs -duration >= %v", spec.Name, min))
		}
		fmt.Fprintf(os.Stderr, "building environment (scenario + HD map)...\n")
		start := time.Now()
		res, err := scenario.Run(context.Background(), spec, autoware.Detector(*detector), *duration)
		if err != nil {
			fatal(err)
		}
		res.WriteReport(w)
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return
	}

	if *duration <= 0 {
		fatal(fmt.Errorf("-duration %v: need a positive drive", *duration))
	}
	fmt.Fprintf(os.Stderr, "building environment (scenario + HD map)...\n")
	start := time.Now()
	env, err := experiments.NewEnv()
	if err != nil {
		fatal(err)
	}
	runs := experiments.NewRuns(env, *duration)
	runs.Workers = *workers
	runs.Guard = *guard
	fmt.Fprintf(os.Stderr, "environment ready in %.1fs; simulating %v per configuration (%d workers)\n",
		time.Since(start).Seconds(), *duration, *workers)

	switch *exp {
	case "all":
		err = experiments.RunAll(w, runs)
	case "findings":
		var findings []string
		findings, err = experiments.Findings(runs)
		for _, f := range findings {
			fmt.Fprintln(w, f)
		}
	default:
		var e experiments.Experiment
		if e, err = experiments.ByName(*exp); err == nil {
			err = e.Run(w, runs)
		}
	}
	if err != nil {
		fatal(err)
	}
	if *csvDir != "" {
		if err := experiments.WriteCSV(*csvDir, runs); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "raw data exported to %s\n", *csvDir)
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
}

// writeTuneReport renders the search in the report house style: the
// baseline, the winner, and every candidate with its verdict.
func writeTuneReport(w io.Writer, rep *scenario.TuneReport) {
	fmt.Fprintf(w, "=== Scheduler auto-tune: %s (%.0fs drive, search seed %d) ===\n",
		rep.Scenario, rep.DurationSeconds, rep.SearchSeed)
	fmt.Fprintf(w, "budget: %.0f ms end-to-end\n\n", rep.BudgetMS)
	fmt.Fprintf(w, "%-28s %-22s %9s %9s %8s %s\n", "candidate", "worst path", "p50(ms)", "p99(ms)", "samples", "verdict")
	for _, c := range rep.Candidates {
		verdict := "ok"
		switch {
		case c.Error != "":
			verdict = "error: " + c.Error
		case !c.Feasible:
			verdict = "infeasible (gutted samples)"
		case c.Name == rep.Best.Name:
			verdict = "BEST"
		}
		fmt.Fprintf(w, "%-28s %-22s %9.2f %9.2f %8d %s\n", c.Name, c.Path, c.P50, c.P99, c.Samples, verdict)
	}
	fmt.Fprintf(w, "\nbaseline p99 %.2f ms -> tuned p99 %.2f ms (%.1f%% improvement)\n",
		rep.Baseline.P99, rep.Best.P99, rep.P99ImprovementPct)
	fmt.Fprintf(w, "winning knobs: priorities=%t shed=%dms max_inflight=%d queue_depth=%d\n",
		rep.Best.Priorities, rep.Best.ShedMS, rep.Best.MaxInflight, rep.Best.QueueDepth)
}

// writeSearchReport renders the adversarial search in the same house
// style as the tuner: baseline, worst case, and every candidate with
// its verdict.
func writeSearchReport(w io.Writer, rep *search.Report) {
	fmt.Fprintf(w, "=== Adversarial latency search: %s space (%.0fs drive, search seed %d, %s) ===\n",
		rep.Space, rep.DurationSeconds, rep.SearchSeed, rep.Detector)
	fmt.Fprintf(w, "budget: %.0f ms end-to-end; %d candidates\n\n", rep.BudgetMS, rep.Budget)
	fmt.Fprintf(w, "%-18s %-22s %9s %9s %8s %-22s %s\n",
		"candidate", "worst path", "p50(ms)", "p99(ms)", "samples", "top node (share)", "verdict")
	for _, c := range rep.Candidates {
		verdict := "ok"
		switch {
		case c.Error != "":
			verdict = "error: " + c.Error
		case !c.Feasible:
			verdict = "infeasible (gutted samples)"
		case c.Name == rep.Worst.Name && c.Violation:
			verdict = "WORST (budget violation)"
		case c.Name == rep.Worst.Name:
			verdict = "WORST"
		case c.Violation:
			verdict = "budget violation"
		}
		top := ""
		if c.TopNode != "" {
			top = fmt.Sprintf("%s (%.0f%%)", c.TopNode, 100*c.TopShare)
		}
		fmt.Fprintf(w, "%-18s %-22s %9.2f %9.2f %8d %-22s %s\n",
			c.Name, c.Path, c.P50, c.P99, c.Samples, top, verdict)
	}
	fmt.Fprintf(w, "\nbaseline p99 %.2f ms -> worst p99 %.2f ms (+%.1f%%), %d budget violation(s)\n",
		rep.Baseline.P99, rep.Worst.P99, rep.P99InflationPct, rep.Violations)
	fmt.Fprintf(w, "worst world: %s\n", rep.Worst.Params)
	for _, f := range rep.Worst.Faults {
		fmt.Fprintf(w, "worst fault: %s\n", f)
	}
}

// writeBench serializes a search/tune report to the JSON file name,
// and writes nothing when name is empty.
func writeBench(name string, rep any) {
	if name == "" {
		return
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(name, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "search results written to %s\n", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "characterize:", err)
	os.Exit(1)
}
