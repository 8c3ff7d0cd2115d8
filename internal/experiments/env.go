package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/parallel"
	"repro/internal/world"
)

// Env holds the shared fixtures every experiment runs against: the
// scenario (the synthetic Nagoya drive) and its HD map. Both are
// read-only once built, so any number of stacks may run against them
// concurrently.
type Env struct {
	Scenario *world.Scenario
	Map      *hdmap.Map
}

// NewEnv returns the scripted drive's environment, which
// autoware.Environment builds once per process: every NewEnv, and every
// scenario.Run over the scripted world, shares one world and one map.
func NewEnv() (*Env, error) {
	scen, m, err := autoware.Environment(world.DefaultScenarioConfig())
	if err != nil {
		return nil, err
	}
	return &Env{Scenario: scen, Map: m}, nil
}

// Runs caches completed stack executions so the experiments that share
// a configuration do not re-simulate. With Workers > 1, Prewarm
// executes the whole configuration matrix concurrently; each stack is
// an isolated simulation (own virtual clock, RNGs, platform state), so
// results are identical to serial execution.
type Runs struct {
	env      *Env
	Duration time.Duration
	// Workers bounds how many configurations simulate concurrently in
	// Prewarm and Findings. <= 1 means serial (the default).
	Workers int
	// Guard attaches the input-integrity layer to every stack. On clean
	// sensor input (these runs inject no faults) the guard is a no-op;
	// the flag exists to demonstrate exactly that.
	Guard bool

	mu         sync.Mutex
	full       map[autoware.Detector]*autoware.Stack
	standalone map[autoware.Detector]*autoware.Stack
	saturated  map[autoware.Detector]*autoware.Stack
}

// NewRuns prepares a run cache for the given drive duration per run.
func NewRuns(env *Env, duration time.Duration) *Runs {
	return &Runs{
		env:        env,
		Duration:   duration,
		full:       make(map[autoware.Detector]*autoware.Stack),
		standalone: make(map[autoware.Detector]*autoware.Stack),
		saturated:  make(map[autoware.Detector]*autoware.Stack),
	}
}

// Full returns (running on first use) the full-system stack for a
// detector.
func (r *Runs) Full(det autoware.Detector) (*autoware.Stack, error) {
	return r.get(r.full, det, func(*autoware.Config) {})
}

// Standalone returns the vision-only stack for a detector.
func (r *Runs) Standalone(det autoware.Detector) (*autoware.Stack, error) {
	return r.get(r.standalone, det, func(cfg *autoware.Config) { cfg.Mode = autoware.ModeVisionStandalone })
}

// Saturated returns the full-system stack with the camera overdriven to
// 13.5 fps — the saturated-detector dropping regime of Table III (b).
func (r *Runs) Saturated(det autoware.Detector) (*autoware.Stack, error) {
	return r.get(r.saturated, det, func(cfg *autoware.Config) { cfg.CameraRate = 13.5 })
}

// get returns the stack cached for det in m, or builds it from the
// detector's default config as set adjusts it, drives it to the run
// horizon and caches it.
func (r *Runs) get(m map[autoware.Detector]*autoware.Stack, det autoware.Detector, set func(*autoware.Config)) (*autoware.Stack, error) {
	r.mu.Lock()
	s, ok := m[det]
	r.mu.Unlock()
	if ok {
		return s, nil
	}
	cfg := autoware.DefaultConfig(det)
	cfg.Guard = r.Guard
	set(&cfg)
	s, err := autoware.BuildWithMap(cfg, r.env.Scenario, r.env.Map)
	if err != nil {
		return nil, err
	}
	s.Run(r.Duration)
	r.mu.Lock()
	m[det] = s
	r.mu.Unlock()
	return s, nil
}

// Prewarm simulates every configuration the experiment suite reads —
// full system and saturated-camera for each detector, standalone for
// the Fig. 8 pair — across at most Workers goroutines. Errors are
// reported in configuration order, so failures are deterministic too.
// After Prewarm, every experiment harness is a pure cache read.
func (r *Runs) Prewarm() error {
	var fs []fetch
	for _, det := range autoware.Detectors() {
		fs = append(fs, fetch{r.Full, det}, fetch{r.Saturated, det})
	}
	for _, det := range []autoware.Detector{autoware.DetectorSSD512, autoware.DetectorYOLOv3} {
		fs = append(fs, fetch{r.Standalone, det})
	}
	return r.fetchAll(fs)
}

// fetch names one configuration: a getter (Full, Standalone or
// Saturated) and its detector.
type fetch struct {
	get func(autoware.Detector) (*autoware.Stack, error)
	det autoware.Detector
}

// fetchAll simulates the configurations fs names across at most
// Workers goroutines and returns the first error in list order.
func (r *Runs) fetchAll(fs []fetch) error {
	return parallel.FirstError(len(fs), max(r.Workers, 1), func(i int) error {
		_, err := fs[i].get(fs[i].det)
		return err
	})
}

// warm prewarms the configuration matrix when Workers allow
// concurrency; serial runs warm lazily as the experiments read it.
func (r *Runs) warm() error {
	if r.Workers <= 1 {
		return nil
	}
	if err := r.Prewarm(); err != nil {
		return fmt.Errorf("experiments: prewarm: %w", err)
	}
	return nil
}
