// Package scenario is the chaos-test harness: it runs the full stack
// twice over the same environment — once fault-free, once under a
// named, seeded fault schedule with the graceful-degradation watchdog
// attached — and reports the resulting latency distributions side by
// side. Because every layer underneath is deterministic, the same
// scenario, seed and duration always produce a byte-identical report,
// which is what turns the paper's accidental tail phenomena (contention
// inflation, message drops, stale inputs) into regression-testable
// behaviors.
package scenario

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/ros"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/world"
)

// Spec is one named chaos scenario: a fault schedule plus the watch
// policies that should degrade gracefully under it.
type Spec struct {
	Name        string
	Description string
	// Seed drives every stochastic fault decision.
	Seed   uint64
	Faults []faults.Fault
	// Watch lists the graceful-degradation policies to install on the
	// faulted run (the baseline never needs them).
	Watch []avstack.WatchPolicy
	// WatchPeriod overrides the watchdog check cadence (default 100 ms).
	WatchPeriod time.Duration
	// Supervise attaches the default supervision layer (restart with
	// backoff + checkpoint restore) to the faulted run, seeded from Seed.
	Supervise bool
	// ShedBudget enables deadline-aware load shedding on the faulted
	// run: queued frames older than the budget are shed at dispatch.
	ShedBudget time.Duration
	// Guard attaches the input-integrity layer (payload validation +
	// time sanitization + quarantine) to the faulted run.
	Guard bool
	// Sched, when non-nil, attaches the critical-path deadline scheduler
	// to the faulted run with these knobs. The criticality profile is
	// measured on the fault-free baseline leg of the same drive (a
	// lineage ChainLog observes it without perturbing a single sample),
	// so the priorities the faulted run schedules with come from the
	// drive it is actually defending.
	Sched *sched.Knobs
	// World, when non-nil, replaces the scripted default drive with a
	// procedurally generated parameterization (see world.Generate and
	// internal/search): traffic mix, pedestrian bursts, weather, city
	// topology. Run and Tune build the environment from it; RunWithEnv
	// callers must pass an environment built from the same config.
	World *world.ScenarioConfig
}

// worldConfig resolves the drive parameterization: the spec's generated
// world if set, else the scripted default.
func (s Spec) worldConfig() world.ScenarioConfig {
	if s.World != nil {
		return *s.World
	}
	return world.DefaultScenarioConfig()
}

// Schedule bundles the spec's faults with its seed.
func (s Spec) Schedule() faults.Schedule {
	return faults.Schedule{Seed: s.Seed, Faults: s.Faults}
}

// validate rejects a malformed fault schedule (a spec without faults
// is a clean drive, not a malformed one) and a drive too short for it.
func (s Spec) validate(duration time.Duration) error {
	if len(s.Faults) > 0 {
		if err := s.Schedule().Validate(); err != nil {
			return err
		}
	}
	if min := s.MinDuration(); duration < min {
		return fmt.Errorf("scenario: duration %v shorter than scenario horizon %v", duration, min)
	}
	return nil
}

// MinDuration returns the shortest drive that covers every fault window
// with a second of post-fault recovery headroom.
func (s Spec) MinDuration() time.Duration {
	var latest time.Duration
	for _, f := range s.Faults {
		if f.End() > latest {
			latest = f.End()
		}
	}
	return latest + time.Second
}

// Builtin scenario names, in report order.
const (
	NameContention   = "contention"
	NameCameraStall  = "camera-stall"
	NameLidarDrop    = "lidar-drop"
	NameSensorJitter = "sensor-jitter"
	NameQueueBurst   = "queue-burst"
	NameCrashRecover = "crash-recover"
	NameOverloadShed = "overload-shed"
	NameCorruptLidar = "corrupt-lidar"
	NameClockSkew    = "clock-skew"
	NameDupStorm     = "dup-storm"
	// NameContentionTuned is the contention scenario re-run with the
	// tuner's winning schedule — the F1-closure regression pin.
	NameContentionTuned = "contention-tuned"
)

// ContentionTunedKnobs is the winning schedule from the seeded tuner
// search (`characterize -exp tune -duration 12s -seed 1`, recorded in
// BENCH_sched.json), pinned here so the contention-tuned scenario is a
// stable regression rather than a fresh search per run. The search's
// top two candidates — this one and its priorities-off twin — are
// separated by 2 µs of p99 (88.2898 vs 88.2879 ms, against a 132.26 ms
// baseline); we pin the criticality-profiled variant for its 0.8 ms
// better p50 and so the profiled tie-break stays under regression.
func ContentionTunedKnobs() sched.Knobs {
	return sched.Knobs{
		UsePriorities: true,
		ShedBudget:    80 * time.Millisecond,
		MaxInflight:   3,
	}
}

// visionObjectsTopic is the vision detector's output (watched by the
// camera-stall scenario).
const visionObjectsTopic = "/detection/image_detector/objects"

// builtins returns the named scenario registry. Fault windows open at
// 4 s (past the 3 s measurement warmup) so both baseline and faulted
// measurements span identical drive intervals.
func builtins() []Spec {
	return []Spec{
		{
			Name: NameContention,
			Description: "co-located best-effort CPU work competes with the stack " +
				"(Finding 1: shared-resource contention inflates tail latency)",
			Seed: 0xF1A5,
			Faults: []faults.Fault{{
				Kind: faults.KindContention, Start: 4 * time.Second, Duration: 5 * time.Second,
				Workers: 2, Load: 4e-3, Bandwidth: 2e9,
			}},
		},
		{
			Name: NameCameraStall,
			Description: "the vision detector hangs mid-drive; the watchdog " +
				"substitutes last-good detections until it recovers",
			Seed: 0x57A11,
			Faults: []faults.Fault{{
				Kind: faults.KindStall, Node: autoware.VisionNodeName,
				Start: 4 * time.Second, Duration: 3 * time.Second,
				Delay: 900 * time.Millisecond,
			}},
			Watch: []avstack.WatchPolicy{{
				Node:    autoware.VisionNodeName,
				Topic:   visionObjectsTopic,
				Timeout: 400 * time.Millisecond,
				Policy:  avstack.FallbackLastGood,
			}},
		},
		{
			Name: NameLidarDrop,
			Description: "a third of LiDAR frames vanish in transport " +
				"(lossy driver; downstream rates and drops shift)",
			Seed: 0xD20B,
			Faults: []faults.Fault{{
				Kind: faults.KindDrop, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 5 * time.Second, Prob: 0.35,
			}},
		},
		{
			Name: NameSensorJitter,
			Description: "sensor publication timing wanders (clock drift / " +
				"bursty transport); pipeline phase alignment degrades",
			Seed: 0x717E2,
			Faults: []faults.Fault{
				{
					Kind: faults.KindJitter, Topic: "/points_raw",
					Start: 4 * time.Second, Duration: 5 * time.Second,
					Sigma: 30 * time.Millisecond,
				},
				{
					Kind: faults.KindJitter, Topic: "/image_raw",
					Start: 4 * time.Second, Duration: 5 * time.Second,
					Sigma: 30 * time.Millisecond,
				},
			},
		},
		{
			Name: NameQueueBurst,
			Description: "a runaway publisher floods /points_raw, saturating " +
				"subscriber queues into drop-oldest eviction (Table III on demand)",
			Seed: 0xB025,
			Faults: []faults.Fault{{
				Kind: faults.KindBurst, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 4 * time.Second, Rate: 60,
			}},
		},
		{
			Name: NameCrashRecover,
			Description: "the tracker process crashes mid-drive; the supervisor " +
				"restarts it with backoff and restores the last state checkpoint",
			Seed: 0xC4A54,
			Faults: []faults.Fault{{
				Kind: faults.KindCrash, Node: autoware.TrackerNodeName,
				Start: 4 * time.Second, Duration: 2500 * time.Millisecond,
			}},
			Supervise: true,
		},
		{
			Name: NameOverloadShed,
			Description: "the queue-burst flood again, but with deadline-aware " +
				"shedding: frames past the 100 ms budget are dropped at dispatch " +
				"instead of amplifying queue delay",
			Seed: 0xB025,
			Faults: []faults.Fault{{
				Kind: faults.KindBurst, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 4 * time.Second, Rate: 60,
			}},
			ShedBudget: 100 * time.Millisecond,
		},
		{
			Name: NameCorruptLidar,
			Description: "a tenth of LiDAR frames arrive bit-flipped (NaN/Inf " +
				"points); the integrity guard quarantines every one before " +
				"it can poison downstream state",
			Seed: 0xC0227,
			Faults: []faults.Fault{{
				Kind: faults.KindCorrupt, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 5 * time.Second, Prob: 0.10,
			}},
			Guard: true,
		},
		{
			Name: NameClockSkew,
			Description: "sensor clocks break both ways — LiDAR stamps rewind " +
				"400 ms, camera stamps jump 400 ms ahead; the guard's time " +
				"sanitization rejects both against its per-topic clock model",
			Seed: 0x5CE3,
			Faults: []faults.Fault{
				{
					Kind: faults.KindSkew, Topic: "/points_raw",
					Start: 4 * time.Second, Duration: 5 * time.Second,
					Prob: 0.25, Skew: -400 * time.Millisecond,
				},
				{
					Kind: faults.KindSkew, Topic: "/image_raw",
					Start: 4 * time.Second, Duration: 5 * time.Second,
					Prob: 0.25, Skew: 400 * time.Millisecond,
				},
			},
			Guard: true,
		},
		{
			Name: NameDupStorm,
			Description: "a duplicating driver delivers every LiDAR frame three " +
				"times; the guard's dup window drops the copies so queues see " +
				"each stamp exactly once",
			Seed: 0xD0D0,
			Faults: []faults.Fault{{
				Kind: faults.KindDup, Topic: "/points_raw",
				Start: 4 * time.Second, Duration: 4 * time.Second,
				Prob: 1.0, Copies: 2,
			}},
			Guard: true,
		},
		func() Spec {
			k := ContentionTunedKnobs()
			return Spec{
				Name: NameContentionTuned,
				Description: "the contention squeeze again, but scheduled: critical-path " +
					"priorities, deadline shedding and an admission cap close the " +
					"tail the plain contention scenario reproduces (F1 closure)",
				Seed: 0xF1A5,
				Faults: []faults.Fault{{
					Kind: faults.KindContention, Start: 4 * time.Second, Duration: 5 * time.Second,
					Workers: 2, Load: 4e-3, Bandwidth: 2e9,
				}},
				Sched: &k,
			}
		}(),
	}
}

// Names lists every named scenario in report order: the builtins,
// then the pinned search winners (gen-*). Generated specs that fail to
// load are omitted here (this feeds flag help text); ByName surfaces
// the load error for anyone who actually asks for one.
func Names() []string {
	specs := builtins()
	if gen, err := Generated(); err == nil {
		specs = append(specs, gen...)
	}
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName resolves a built-in or generated scenario. A generated
// registry that fails to load is an error on lookup — a bad pin must
// surface as a per-request failure (a fleet job error), never a panic
// in the serving process.
func ByName(name string) (Spec, error) {
	for _, s := range builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	gen, err := Generated()
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: resolving %q: %w", name, err)
	}
	for _, s := range gen {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}

// NodeStat pairs one node's baseline and faulted latency summaries.
type NodeStat struct {
	Node     string
	Baseline mathx.Summary
	Faulted  mathx.Summary
}

// PathStat pairs one computation path's summaries.
type PathStat struct {
	Path     string
	Baseline mathx.Summary
	Faulted  mathx.Summary
}

// Result is one completed chaos run: the same drive with and without
// the fault schedule.
type Result struct {
	Spec     Spec
	Detector autoware.Detector
	Duration time.Duration

	Nodes []NodeStat
	Paths []PathStat
	// Events counts the perturbations the injector actually applied.
	Events []faults.Event
	// Degraded lists the watchdog's degradation windows (faulted run).
	Degraded []trace.DegradedInterval
	// Drops is the faulted run's per-subscription drop table.
	Drops []ros.DropReport
	// Outages lists the supervisor's recorded node outages (faulted run;
	// empty unless the spec enables supervision).
	Outages []trace.Outage
	// Losses aggregates fault-induced message losses (drop/crash
	// verdicts the injector actually applied), distinguishing "dropped
	// by a fault" from "never produced".
	Losses []trace.FaultLoss
	// Topics is the faulted run's per-topic traffic table, including
	// deadline-shed and quarantine counts.
	Topics []ros.TopicStats
	// Integrity aggregates the guard's quarantine record (faulted run;
	// empty unless the spec enables the guard).
	Integrity []trace.IntegrityEvent
}

// NodeStat returns the stats row for one node.
func (r *Result) NodeStat(node string) (NodeStat, bool) {
	for _, ns := range r.Nodes {
		if ns.Node == node {
			return ns, true
		}
	}
	return NodeStat{}, false
}

// buildEnv builds the environment a drive parameterization resolves
// to: its world and the HD map surveyed from it. Every entry point that
// builds its own environment goes through here, so a spec's world
// config always reaches the city its stacks drive in.
func buildEnv(wcfg world.ScenarioConfig) (*world.Scenario, *hdmap.Map, error) {
	scen, err := world.BuildScenario(wcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: building world: %w", err)
	}
	mc := hdmap.DefaultConfig()
	mc.ScanSpacing = 10
	m, err := hdmap.Build(scen, mc)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: building map: %w", err)
	}
	return scen, m, nil
}

// Run executes the scenario over a freshly built environment. Building
// the scenario's HD map dominates wall time; tests with a cached
// environment should use RunWithEnv.
func Run(spec Spec, det autoware.Detector, duration time.Duration) (*Result, error) {
	scen, m, err := buildEnv(spec.worldConfig())
	if err != nil {
		return nil, err
	}
	return RunWithEnv(scen, m, spec, det, duration)
}

// RunWithEnv executes the scenario over an existing environment: one
// fault-free baseline run, one faulted run with every layer the spec
// arms. Identical inputs produce identical Results.
func RunWithEnv(scen *world.Scenario, m *hdmap.Map, spec Spec, det autoware.Detector, duration time.Duration) (*Result, error) {
	return RunWithEnvContext(context.Background(), scen, m, spec, det, duration)
}

// RunWithEnvContext is RunWithEnv with cooperative cancellation: both
// drive legs advance under the context, so a fleet job deadline stops
// in-flight simulation promptly (the error wraps autoware.ErrCancelled)
// instead of leaking the vehicle until drive end. Run to completion it
// is byte-identical to RunWithEnv.
func RunWithEnvContext(ctx context.Context, scen *world.Scenario, m *hdmap.Map, spec Spec, det autoware.Detector, duration time.Duration) (*Result, error) {
	if err := spec.validate(duration); err != nil {
		return nil, err
	}

	baseline, err := buildStack(scen, m, det, false, 0, spec.worldConfig())
	if err != nil {
		return nil, err
	}
	var chains *trace.ChainLog
	if spec.Sched != nil {
		// Observer only: lineage recording never touches virtual time,
		// so the baseline report stays byte-identical with or without it.
		chains = avstack.AttachChainLog(baseline)
	}
	if err := baseline.RunContext(ctx, duration); err != nil {
		return nil, fmt.Errorf("scenario: baseline leg: %w", err)
	}
	var crit *sched.Criticality
	if chains != nil {
		crit = sched.Analyze(chains.Chains())
	}

	faulted, inj, err := runFaulted(ctx, scen, m, spec, det, duration, crit)
	if err != nil {
		return nil, err
	}
	return collect(spec, det, duration, baseline, faulted, inj), nil
}

// runFaulted runs a spec's faulted leg: the stack built with the spec's
// guard and its scheduler knobs' queue depth, then every run-time layer
// the spec arms, attached by avstack.AttachLayers. crit is the
// criticality profile a scheduled spec breaks ties with.
func runFaulted(ctx context.Context, scen *world.Scenario, m *hdmap.Map, spec Spec, det autoware.Detector, duration time.Duration, crit *sched.Criticality) (*autoware.Stack, *faults.Injector, error) {
	depth := 0
	if spec.Sched != nil {
		depth = spec.Sched.QueueDepth
	}
	st, err := buildStack(scen, m, det, spec.Guard, depth, spec.worldConfig())
	if err != nil {
		return nil, nil, err
	}
	inj, err := avstack.AttachLayers(st, avstack.Layers{
		Faults:      spec.Schedule(),
		Supervise:   spec.Supervise,
		ShedBudget:  spec.ShedBudget,
		Watch:       avstack.WatchdogConfig{Period: spec.WatchPeriod, Policies: spec.Watch},
		Sched:       spec.Sched,
		Criticality: crit,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := st.RunContext(ctx, duration); err != nil {
		return nil, nil, fmt.Errorf("scenario: faulted leg: %w", err)
	}
	return st, inj, nil
}

// buildStack assembles one stack over the shared environment. depth > 0
// overrides the vision detector's input queue depth (the scheduler's
// QueueDepth knob; 0 keeps the stock configuration). wcfg is the drive
// parameterization the environment was built from — it must match scen,
// and it carries the weather profile BuildWithMap degrades the sensor
// suite with.
func buildStack(scen *world.Scenario, m *hdmap.Map, det autoware.Detector, guarded bool, depth int, wcfg world.ScenarioConfig) (*autoware.Stack, error) {
	cfg := autoware.DefaultConfig(det)
	cfg.Scenario = wcfg
	cfg.Guard = guarded
	if depth > 0 {
		cfg.VisionQueueDepth = depth
	}
	return autoware.BuildWithMap(cfg, scen, m)
}

// collect assembles the Result from two completed runs. inj is nil
// when the spec injects no faults.
func collect(spec Spec, det autoware.Detector, duration time.Duration, baseline, faulted *autoware.Stack, inj *faults.Injector) *Result {
	r := &Result{
		Spec:      spec,
		Detector:  det,
		Duration:  duration,
		Degraded:  faulted.Recorder.DegradedIntervals(),
		Drops:     faulted.Bus.DropReports(),
		Outages:   faulted.Recorder.Outages(),
		Losses:    faulted.Recorder.FaultLosses(),
		Topics:    faulted.Bus.TopicStats(),
		Integrity: faulted.Recorder.IntegrityEvents(),
	}
	if inj != nil {
		r.Events = inj.Events()
	}

	nodeSet := map[string]bool{}
	for _, n := range baseline.Recorder.NodeNames() {
		nodeSet[n] = true
	}
	for _, n := range faulted.Recorder.NodeNames() {
		nodeSet[n] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		r.Nodes = append(r.Nodes, NodeStat{
			Node:     n,
			Baseline: baseline.Recorder.NodeLatency(n),
			Faulted:  faulted.Recorder.NodeLatency(n),
		})
	}
	for _, p := range baseline.Recorder.PathNames() {
		r.Paths = append(r.Paths, PathStat{
			Path:     p,
			Baseline: baseline.Recorder.PathLatency(p),
			Faulted:  faulted.Recorder.PathLatency(p),
		})
	}
	return r
}
