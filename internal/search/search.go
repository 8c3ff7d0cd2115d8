package search

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/sched"
	"repro/internal/world"
)

// DefaultBudgetMS is the paper's end-to-end latency budget the search
// hunts violations of.
const DefaultBudgetMS = 100.0

// minSamplesFrac is the feasibility floor, matching the scheduler
// tuner: a candidate keeping fewer than this fraction of the baseline's
// end-to-end samples is disqualified regardless of its p99 — a scenario
// is not "worst" if it simply starves the pipeline of traffic.
const minSamplesFrac = 0.5

// searchSalt decorrelates the search's RNG streams from the generator's
// and the simulation's use of the same seed value.
const searchSalt = 0x5EA2C4

// Config parameterizes one search run.
type Config struct {
	// Space bounds world sampling and mutation.
	Space world.ParamSpace
	// SpaceName labels the space in reports ("default", "compact").
	SpaceName string
	// Seed drives every sampling and mutation decision.
	Seed uint64
	// Budget is the total number of evaluated candidates, including the
	// scripted baseline at index 0. Minimum 2.
	Budget int
	// Duration is the virtual drive length per evaluation. Minimum 7 s
	// (fault windows open at 4 s, past the measurement warmup, and need
	// a second of post-fault headroom).
	Duration time.Duration
	// Detector selects the vision DNN (the paper's configuration axis).
	Detector autoware.Detector
	// BudgetMS is the latency budget; zero means DefaultBudgetMS.
	BudgetMS float64
}

// Eval is one candidate's measurement: the worst computation path's
// latency, scored as the scheduler tuner scores it (sched.WorstPath),
// plus the criticality attribution of that run — which node carried the
// largest share of end-to-end latency across the lineage chains, per
// sched.Analyze.
type Eval struct {
	sched.Eval
	TopNode  string  `json:"top_node,omitempty"`
	TopShare float64 `json:"top_share,omitempty"`
}

// Outcome pairs a candidate with its measurement in the report.
type Outcome struct {
	Name string `json:"name"`
	// Params is the world's canonical params line; Faults the canonical
	// fault lines — together with FaultSeed they reproduce the run.
	Params    string   `json:"params"`
	FaultSeed uint64   `json:"fault_seed,omitempty"`
	Faults    []string `json:"faults,omitempty"`
	Eval
	Feasible bool `json:"feasible"`
	// Violation marks worst-path p99 above the budget — the search's
	// quarry.
	Violation bool   `json:"violation"`
	Error     string `json:"error,omitempty"`
}

// Report is the search's output, serialized to BENCH_search.json by
// `characterize -exp search`. Same config ⇒ byte-identical report.
type Report struct {
	SearchSeed      uint64  `json:"search_seed"`
	Space           string  `json:"space"`
	Detector        string  `json:"detector"`
	DurationSeconds float64 `json:"duration_s"`
	Budget          int     `json:"budget"`
	BudgetMS        float64 `json:"budget_ms"`
	// Baseline is candidate 0: the scripted default drive, fault-free.
	Baseline Outcome `json:"baseline"`
	// Worst is the feasible candidate with the highest worst-path p99
	// (ties to the earlier candidate). Never below Baseline: the
	// baseline is always feasible.
	Worst Outcome `json:"worst"`
	// P99InflationPct is Worst's p99 over Baseline's, as a percentage.
	P99InflationPct float64 `json:"p99_inflation_pct"`
	// Violations counts feasible candidates whose p99 broke the budget.
	Violations int       `json:"violations"`
	Candidates []Outcome `json:"candidates"`
}

// WorstCandidate returns the elected worst case as a Candidate (for
// pinning). ok is false when the report is empty.
func (r *Report) WorstCandidate() (Candidate, bool) {
	for _, o := range r.Candidates {
		if o.Name == r.Worst.Name {
			return outcomeToCandidate(o)
		}
	}
	return Candidate{}, false
}

func outcomeToCandidate(o Outcome) (Candidate, bool) {
	w, err := world.ParseParams(o.Params)
	if err != nil {
		return Candidate{}, false
	}
	c := Candidate{Name: o.Name, World: w, FaultSeed: o.FaultSeed}
	for _, line := range o.Faults {
		f, err := faults.ParseFault(line)
		if err != nil {
			return Candidate{}, false
		}
		c.Faults = append(c.Faults, f)
	}
	return c, true
}

// Run executes the adversarial search: evaluate the scripted baseline,
// then Budget-1 generated candidates — alternating fresh samples from
// the space with mutations of the worst case found so far — and elect
// the feasible candidate with the highest worst-path p99. Everything
// underneath is deterministic, so the same Config always elects the
// same worst case with the same measurements.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the context is
// checked between candidates and threaded into every drive, so a fleet
// job deadline (or a ctrl-C) stops the in-flight evaluation within a
// slice of wall clock — the error wraps autoware.ErrCancelled — rather
// than leaking the stack until drive end. Run to completion it is
// byte-identical to Run.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.Space.Validate(); err != nil {
		return nil, err
	}
	if cfg.Budget < 2 {
		return nil, fmt.Errorf("search: budget %d too small (need >= 2: baseline + one candidate)", cfg.Budget)
	}
	if cfg.Duration < 7*time.Second {
		return nil, fmt.Errorf("search: duration %v too short (need >= 7s to fit a fault window past warmup)", cfg.Duration)
	}
	if cfg.BudgetMS == 0 {
		cfg.BudgetMS = DefaultBudgetMS
	}

	h := &harness{
		ctx:      ctx,
		det:      cfg.Detector,
		duration: cfg.Duration,
		maps:     make(map[string]*hdmap.Map),
	}
	rep := &Report{
		SearchSeed:      cfg.Seed,
		Space:           cfg.SpaceName,
		Detector:        string(cfg.Detector),
		DurationSeconds: cfg.Duration.Seconds(),
		Budget:          cfg.Budget,
		BudgetMS:        cfg.BudgetMS,
	}

	// Candidate 0: the scripted baseline — the paper's default drive,
	// no faults. Always feasible by construction; its sample count sets
	// the feasibility floor, its p99 the inflation reference.
	baseline := Candidate{Name: "baseline-scripted", World: world.DefaultScenarioConfig(), FaultSeed: 0x0BA5E}
	base, err := h.eval(baseline)
	if err != nil {
		return nil, fmt.Errorf("search: baseline eval: %w", err)
	}
	rep.Baseline = outcome(baseline, base, nil, true, cfg.BudgetMS)
	rep.Candidates = append(rep.Candidates, rep.Baseline)
	floor := int(minSamplesFrac * float64(base.Samples))

	root := mathx.NewRNG(cfg.Seed ^ searchSalt)
	bestIdx := 0
	best := baseline
	bestEval := base
	for i := 1; i < cfg.Budget; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("search: candidate %d: %w: %w", i, autoware.ErrCancelled, err)
		}
		stream := root.Split()
		var c Candidate
		// Alternate explore (fresh sample) and exploit (mutate the
		// elected worst so far); exploit has nothing to chew on until a
		// generated candidate beats the baseline.
		if i%2 == 1 || bestIdx == 0 {
			c, err = sample(cfg.Space, stream, cfg.Duration, i)
		} else {
			c, err = mutate(best, cfg.Space, stream, cfg.Duration, i)
		}
		if err != nil {
			rep.Candidates = append(rep.Candidates, Outcome{Name: fmt.Sprintf("gen%02d", i), Error: err.Error()})
			continue
		}
		ev, err := h.eval(c)
		if errors.Is(err, autoware.ErrCancelled) {
			// Cancellation aborts the whole search; elimination is only
			// for candidates the generator or stack rejects.
			return nil, fmt.Errorf("search: candidate %d: %w", i, err)
		}
		if err != nil {
			// Elimination, not abortion: a candidate the generator or
			// stack rejects is recorded and skipped, same as the tuner.
			rep.Candidates = append(rep.Candidates, outcome(c, Eval{}, err, false, cfg.BudgetMS))
			continue
		}
		feasible := ev.Samples > 0 && ev.Samples >= floor
		rep.Candidates = append(rep.Candidates, outcome(c, ev, nil, feasible, cfg.BudgetMS))
		if feasible && ev.P99 > bestEval.P99 {
			bestIdx, best, bestEval = i, c, ev
		}
	}

	rep.Worst = rep.Candidates[bestIdx]
	for _, o := range rep.Candidates {
		if o.Violation {
			rep.Violations++
		}
	}
	if rep.Baseline.P99 > 0 {
		rep.P99InflationPct = 100 * (rep.Worst.P99 - rep.Baseline.P99) / rep.Baseline.P99
	}
	return rep, nil
}

func outcome(c Candidate, ev Eval, err error, feasible bool, budgetMS float64) Outcome {
	o := Outcome{
		Name:      c.Name,
		Params:    world.MarshalParams(c.World),
		FaultSeed: c.FaultSeed,
		Eval:      ev,
		Feasible:  feasible && err == nil,
	}
	if len(c.Faults) == 0 {
		o.FaultSeed = 0
	}
	for _, f := range c.Faults {
		o.Faults = append(o.Faults, faults.FormatFault(f))
	}
	if err != nil {
		o.Error = err.Error()
		return o
	}
	o.Violation = o.Feasible && ev.P99 > budgetMS
	return o
}

// harness evaluates candidates over cached HD maps. Maps depend only on
// the static city and the ego route (never on traffic, bursts, or
// weather — the map is surveyed offline in a quiet world), so mutations
// that keep the city reuse the expensive build.
type harness struct {
	ctx      context.Context
	det      autoware.Detector
	duration time.Duration
	maps     map[string]*hdmap.Map
}

func mapKey(cfg world.ScenarioConfig) string {
	c := cfg.City
	return fmt.Sprintf("%d|%g|%g|%g|%x|%x|%g",
		c.Blocks, c.BlockSize, c.StreetWidth, c.BuildingDensity, c.Seed, c.FurnitureSeed, cfg.EgoSpeed)
}

func (h *harness) mapFor(cfg world.ScenarioConfig, scen *world.Scenario) (*hdmap.Map, error) {
	key := mapKey(cfg)
	if m, ok := h.maps[key]; ok {
		return m, nil
	}
	mc := hdmap.DefaultConfig()
	mc.ScanSpacing = 10
	m, err := hdmap.Build(scen, mc)
	if err != nil {
		return nil, err
	}
	h.maps[key] = m
	return m, nil
}

// eval runs one candidate: generated world, guard attached (the search
// measures the hardened stack, as the pinned scenarios do), the
// candidate's fault schedule injected, default supervision seeded from
// the fault seed, full drive, then worst-path extraction and lineage
// criticality attribution.
func (h *harness) eval(c Candidate) (Eval, error) {
	scen, err := world.BuildScenario(c.World)
	if err != nil {
		return Eval{}, err
	}
	m, err := h.mapFor(c.World, scen)
	if err != nil {
		return Eval{}, err
	}
	acfg := autoware.DefaultConfig(h.det)
	acfg.Scenario = c.World
	acfg.Guard = true
	st, err := autoware.BuildWithMap(acfg, scen, m)
	if err != nil {
		return Eval{}, err
	}
	chains := avstack.AttachChainLog(st)
	if _, err := avstack.AttachLayers(st, avstack.Layers{Faults: c.Schedule(), Supervise: true}); err != nil {
		return Eval{}, err
	}
	if err := st.RunContext(h.ctx, h.duration); err != nil {
		return Eval{}, err
	}

	ev := Eval{Eval: sched.WorstPath(st.Recorder)}
	if crit := sched.Analyze(chains.Chains()); crit.Chains() > 0 {
		if nodes := crit.Nodes(); len(nodes) > 0 {
			ev.TopNode, ev.TopShare = nodes[0].Node, nodes[0].Share
		}
	}
	return ev, nil
}
