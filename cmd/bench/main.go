// Command bench is the repository's end-to-end benchmark: it profiles
// the whole stack while it runs, the paper's method applied to this
// reproduction's host cost. Four workloads stress different layers:
//
//	drive   the full perception graph with SSD512 on the scripted drive
//	vision  the detector alone, SSD512 then YOLOv3-416 (Fig. 8)
//	chaos   the hardened stack under four fault storms, checked against
//	        the pinned report hashes
//	fleet   the journaled simulation service over loopback HTTP: a
//	        batch of fresh jobs, then cache hits of a hot one
//
// One run of one workload prints every metric by name and unit, then a
// JSON result line, and exits non-zero if a correctness check failed:
//
//	bench -workload drive -seed 1 -seconds 10 -trace 0
//
// -trace 1 replaces the gated end-to-end metrics with per-layer ones
// from a traced run. Several runs, or all workloads, run each (workload,
// run) in its own child process and summarize them; -out writes the
// record, and -compare applies BENCHMARK.json's bounds to two records:
//
//	bench -workload all -runs 5 -trace 1 -out head.json
//	bench -compare base.json head.json
//
// See README.md for the metric dictionary and the public entry points
// the benchmark calls.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"repro/internal/parallel"
)

// workloads, in report order.
var workloads = []struct {
	name string
	run  func(*run)
}{
	{"drive", runDrive},
	{"vision", runVision},
	{"chaos", runChaos},
	{"fleet", runFleet},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", 1, "input seed; 1 is the paper's scripted drive, later runs use seed+1, seed+2, ...")
	seconds := flag.Float64("seconds", 10, "wall-clock measurement window of one run")
	runs := flag.Int("runs", 1, "untraced runs per workload")
	sets := flag.Int("sets", 1, "repeat the whole set of runs this many times")
	trace := flag.Int("trace", 0, "1 for a traced run with per-layer metrics (with several runs: one traced run per workload in addition)")
	out := flag.String("out", "", "write the summarized record of all runs to this JSON file")
	compare := flag.Bool("compare", false, "compare two records: -compare base.json head.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two record files, got %d arguments", flag.NArg())
		}
		if err := compareRecords(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *runs < 1 || *sets < 1 {
		fatalf("-seconds, -runs and -sets must be positive")
	}
	names := workloadNames()
	if *workload != "all" {
		if !slices.Contains(names, *workload) {
			fatalf("unknown workload %q (have all, %v)", *workload, names)
		}
		names = []string{*workload}
	}

	if len(names) == 1 && *runs == 1 && *sets == 1 && *out == "" {
		if !runOne(names[0], *seed, *seconds, *trace == 1).Correct {
			os.Exit(1)
		}
		return
	}
	ok, err := orchestrate(names, *seed, *seconds, *runs, *sets, *trace == 1, *out)
	if err != nil {
		fatalf("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result.
func runOne(name string, seed uint64, seconds float64, trace bool) result {
	// Shard loops inside nodes run on one goroutine: results are identical
	// for any worker count, and CPU time is steadier without the fan-out.
	parallel.SetMaxWorkers(1)
	r := newRun(name, seed, seconds, trace)
	before, haveStat := readProcStat()
	for _, w := range workloads {
		if w.name == name {
			w.run(r)
		}
	}
	if after, ok := readProcStat(); haveStat && ok {
		r.set("host.steal_pct", stealPct(before, after))
	}
	return r.emit(os.Stdout)
}

// keepAlive holds values live up to this point, so that a heap
// measurement taken just before sees them.
func keepAlive(vs ...any) { runtime.KeepAlive(vs) }

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
