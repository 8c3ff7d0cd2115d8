package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/mathx"
	"repro/internal/trace"
)

// Candidate is one point in the tuner's search space.
type Candidate struct {
	// Name labels the candidate in reports and BENCH_sched.json.
	Name string
	// Disabled marks the identity candidate: run with no scheduler
	// attached at all. Candidate 0 must be Disabled — it measures the
	// baseline every other candidate is judged against, and because the
	// simulation is deterministic its numbers are exactly the untuned
	// scenario's, which is what guarantees tuned p99 ≤ baseline p99.
	Disabled bool
	Knobs    Knobs
}

// Eval is the measurement one candidate run produces: the worst path's
// end-to-end latency summary in milliseconds.
type Eval struct {
	Path    string  `json:"path"`
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

// WorstPath measures a finished run the way the tuner scores it: the
// computation path with the highest p99, ties to the earlier path name,
// with Samples summed over every path so a schedule cannot hide a path
// it starved.
func WorstPath(rec *trace.Recorder) Eval {
	names := rec.PathNames()
	sort.Strings(names)
	var ev Eval
	for _, p := range names {
		s := rec.PathLatency(p)
		ev.Samples += s.Count
		if s.Count > 0 && (ev.Path == "" || s.P99 > ev.P99) {
			ev.Path, ev.P50, ev.P99 = p, s.Median, s.P99
		}
	}
	return ev
}

// Outcome pairs a candidate with its measurement and feasibility.
type Outcome struct {
	Candidate Candidate
	Eval      Eval
	// Feasible is false when the candidate's sample population fell
	// below the floor — a schedule that "wins" p99 by shedding most of
	// the traffic is not a win.
	Feasible bool
	Err      error
}

// DefaultCandidates builds the deterministic search list for a machine
// with the given CPU core count: the identity baseline first, then a
// small grid over the knob axes (priorities on/off × shed budget ×
// admission cap × detector queue depth), then seeded random
// perturbations around the grid. The same seed always yields the same
// list in the same order.
func DefaultCandidates(seed uint64, cores int) []Candidate {
	if cores < 1 {
		cores = 1
	}
	cands := []Candidate{{Name: "baseline", Disabled: true}}

	sheds := []time.Duration{0, 100 * time.Millisecond, 80 * time.Millisecond}
	caps := []int{0, cores, cores + 1}
	depths := []int{0, 1}
	for _, pri := range []bool{true, false} {
		for _, shed := range sheds {
			for _, cap := range caps {
				for _, depth := range depths {
					k := Knobs{UsePriorities: pri, ShedBudget: shed, MaxInflight: cap, QueueDepth: depth}
					if k == (Knobs{}) {
						continue // identity already present as baseline
					}
					cands = append(cands, Candidate{Name: knobName(k), Knobs: k})
				}
			}
		}
	}

	rng := mathx.NewRNG(seed)
	for i := 0; i < 6; i++ {
		k := Knobs{
			UsePriorities: rng.Bool(0.5),
			ShedBudget:    time.Duration(rng.Range(60, 140)) * time.Millisecond,
			MaxInflight:   1 + rng.Intn(cores+2),
			QueueDepth:    rng.Intn(3),
		}
		cands = append(cands, Candidate{Name: fmt.Sprintf("rand%d-%s", i, knobName(k)), Knobs: k})
	}
	return cands
}

func knobName(k Knobs) string {
	pri := "fifo"
	if k.UsePriorities {
		pri = "crit"
	}
	return fmt.Sprintf("%s-shed%dms-cap%d-q%d", pri, k.ShedBudget.Milliseconds(), k.MaxInflight, k.QueueDepth)
}

// Tune evaluates every candidate with the supplied run function and
// returns the index of the best feasible one — lowest worst-path p99,
// earlier candidate on exact ties, so the search is deterministic given
// a deterministic runner. minSamplesFrac (0..1) sets the feasibility
// floor as a fraction of the baseline's sample count; 0 means any
// non-empty sample is feasible. Candidate 0 must be the Disabled
// baseline; because it is always feasible, Tune never returns a result
// worse than not scheduling at all.
func Tune(cands []Candidate, minSamplesFrac float64, run func(Candidate) (Eval, error)) (int, []Outcome, error) {
	if len(cands) == 0 {
		return 0, nil, errors.New("sched: no candidates")
	}
	if !cands[0].Disabled {
		return 0, nil, errors.New("sched: candidate 0 must be the disabled baseline")
	}
	outcomes := make([]Outcome, len(cands))
	base, err := run(cands[0])
	if err != nil {
		return 0, nil, fmt.Errorf("sched: baseline run: %w", err)
	}
	outcomes[0] = Outcome{Candidate: cands[0], Eval: base, Feasible: base.Samples > 0}
	floor := int(minSamplesFrac * float64(base.Samples))

	best := 0
	for i := 1; i < len(cands); i++ {
		ev, err := run(cands[i])
		if err != nil {
			outcomes[i] = Outcome{Candidate: cands[i], Err: err}
			continue
		}
		feasible := ev.Samples > 0 && ev.Samples >= floor
		outcomes[i] = Outcome{Candidate: cands[i], Eval: ev, Feasible: feasible}
		if feasible && ev.P99 < outcomes[best].Eval.P99 {
			best = i
		}
	}
	return best, outcomes, nil
}
