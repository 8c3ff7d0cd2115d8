package scenario

import (
	"context"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/world"
)

// e2eBudgetMS is the paper's end-to-end latency budget the tuner
// optimizes against.
const e2eBudgetMS = 100.0

// tuneMinSamplesFrac is the feasibility floor: a candidate keeping
// fewer than this fraction of the baseline's end-to-end samples is
// rejected regardless of its p99 (a schedule must not win by shedding
// the traffic it was meant to serve).
const tuneMinSamplesFrac = 0.5

// TuneCandidate is one evaluated schedule in a tuning report.
type TuneCandidate struct {
	Name        string `json:"name"`
	Priorities  bool   `json:"priorities"`
	ShedMS      int64  `json:"shed_budget_ms"`
	MaxInflight int    `json:"max_inflight"`
	QueueDepth  int    `json:"queue_depth"`
	// Path is the worst (highest-p99) computation path under this
	// schedule; P50/P99 are that path's latencies in milliseconds.
	Path     string  `json:"path"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	Samples  int     `json:"samples"`
	Feasible bool    `json:"feasible"`
	Error    string  `json:"error,omitempty"`
}

// TuneReport is the auto-tuner's output, serialized to BENCH_sched.json
// by `characterize -exp tune`.
type TuneReport struct {
	Scenario        string  `json:"scenario"`
	DurationSeconds float64 `json:"duration_s"`
	SearchSeed      uint64  `json:"search_seed"`
	BudgetMS        float64 `json:"budget_ms"`
	// Baseline is candidate 0: the scenario with no scheduler attached.
	Baseline TuneCandidate `json:"baseline"`
	// Best is the feasible candidate with the lowest worst-path p99;
	// never worse than Baseline (the baseline is always feasible and
	// deterministic reruns reproduce it exactly).
	Best              TuneCandidate   `json:"best"`
	P99ImprovementPct float64         `json:"p99_improvement_pct"`
	Candidates        []TuneCandidate `json:"candidates"`
}

// Tune runs the deterministic auto-tuner on a scenario's faulted leg.
// It builds the spec's environment, runs one clean profiling drive
// (lineage chains → criticality), then one faulted leg per seeded
// candidate schedule (none for the Disabled baseline), and reports the
// candidate minimizing worst-path p99. Everything underneath is
// deterministic, so the same inputs always elect the same winner.
func Tune(spec Spec, det autoware.Detector, duration time.Duration, searchSeed uint64) (*TuneReport, error) {
	if err := spec.validate(duration); err != nil {
		return nil, err
	}
	scen, m, err := buildEnv(spec.worldConfig())
	if err != nil {
		return nil, err
	}

	profile, err := buildStack(scen, m, det, false, 0, spec.worldConfig())
	if err != nil {
		return nil, err
	}
	chains := avstack.AttachChainLog(profile)
	profile.Run(duration)
	crit := sched.Analyze(chains.Chains())

	cands := sched.DefaultCandidates(searchSeed, platform.DefaultCPUConfig().Cores)
	best, outcomes, err := sched.Tune(cands, tuneMinSamplesFrac, func(c sched.Candidate) (sched.Eval, error) {
		return evalCandidate(scen, m, spec, det, duration, crit, c)
	})
	if err != nil {
		return nil, err
	}

	rep := &TuneReport{
		Scenario:        spec.Name,
		DurationSeconds: duration.Seconds(),
		SearchSeed:      searchSeed,
		BudgetMS:        e2eBudgetMS,
	}
	for i, o := range outcomes {
		tc := toTuneCandidate(o)
		rep.Candidates = append(rep.Candidates, tc)
		if i == 0 {
			rep.Baseline = tc
		}
		if i == best {
			rep.Best = tc
		}
	}
	if rep.Baseline.P99 > 0 {
		rep.P99ImprovementPct = 100 * (rep.Baseline.P99 - rep.Best.P99) / rep.Baseline.P99
	}
	return rep, nil
}

// evalCandidate runs the spec's faulted leg under one candidate
// schedule and measures the worst path. The candidate's knobs replace
// (not compose with) whatever Spec.Sched pins; the Disabled baseline
// runs unscheduled, so for a spec without a pinned schedule candidate 0
// is exactly the scenario's own faulted leg.
func evalCandidate(scen *world.Scenario, m *hdmap.Map, spec Spec, det autoware.Detector, duration time.Duration, crit *sched.Criticality, c sched.Candidate) (sched.Eval, error) {
	spec.Sched = nil
	if !c.Disabled {
		spec.Sched = &c.Knobs
	}
	st, _, err := runFaulted(context.Background(), scen, m, spec, det, duration, crit)
	if err != nil {
		return sched.Eval{}, err
	}
	return sched.WorstPath(st.Recorder), nil
}

func toTuneCandidate(o sched.Outcome) TuneCandidate {
	tc := TuneCandidate{
		Name:        o.Candidate.Name,
		Priorities:  o.Candidate.Knobs.UsePriorities,
		ShedMS:      o.Candidate.Knobs.ShedBudget.Milliseconds(),
		MaxInflight: o.Candidate.Knobs.MaxInflight,
		QueueDepth:  o.Candidate.Knobs.QueueDepth,
		Path:        o.Eval.Path,
		P50:         o.Eval.P50,
		P99:         o.Eval.P99,
		Samples:     o.Eval.Samples,
		Feasible:    o.Feasible,
	}
	if o.Err != nil {
		tc.Error = o.Err.Error()
	}
	return tc
}
