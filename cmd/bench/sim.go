package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/world"
)

// Virtual horizons of one measured episode. The drive's worst path
// yields about 95 post-warmup samples in 12.5 s, 190 over a unit's two
// traffic realizations, and each detector about 270 in 30 s, so a p90
// has nineteen or more samples beyond it.
const (
	driveHorizon = 12500 * time.Millisecond
	// driveTraffics is how many traffic realizations one drive unit
	// covers. How much host work a drive costs depends on where the
	// traffic runs: over one realization per run, ten seeds spread the
	// drive's throughput by 7% to 9%, nearly all of it repeating seed for
	// seed. Two shorter episodes on different traffic halve that share
	// at the same cost.
	driveTraffics = 2
	visionHorizon = 30 * time.Second
	// setupRepeats is how many times the untraced runs set up; setup_s
	// is the median.
	setupRepeats = 3
	// maxPoseErrorM bounds the final localization error of a drive.
	maxPoseErrorM = 4.0
)

// seedMix turns a workload seed into a 64-bit perturbation.
func seedMix(seed uint64) uint64 { return mathx.NewRNG(seed).Uint64() }

// worldConfig is the drive parameterization of a seed's i-th traffic
// realization. Realization 0 of seed 1 is the paper's scripted drive;
// every other one redraws the traffic from the seed and keeps the city
// and the ego route, so one HD map serves them all.
func worldConfig(seed uint64, i int) world.ScenarioConfig {
	wc := world.DefaultScenarioConfig()
	if seed != 1 || i != 0 {
		rng := mathx.NewRNG(seed)
		mix := rng.Uint64()
		for ; i > 0; i-- {
			mix = rng.Uint64()
		}
		wc.Seed ^= mix
	}
	return wc
}

// trafficWorld builds a seed's i-th traffic realization over the city of
// a built environment: the world alone, which takes under a millisecond;
// the environment's HD map depends only on the city and the ego route.
func trafficWorld(e env, seed uint64, i int) (*world.Scenario, world.ScenarioConfig, error) {
	wc := worldConfig(seed, i)
	if i == 0 {
		return e.scen, wc, nil
	}
	scen, err := world.BuildScenario(wc)
	if err != nil {
		return nil, wc, fmt.Errorf("building traffic %d: %w", i, err)
	}
	return scen, wc, nil
}

// stackConfig is the stack configuration for a seed: any seed other
// than 1 also redraws the platform's OS-noise realization, which is what
// makes the vision-only latency depend on the seed at all.
func stackConfig(det autoware.Detector, mode autoware.Mode, seed uint64) autoware.Config {
	cfg := autoware.DefaultConfig(det)
	cfg.Mode = mode
	cfg.Scenario = worldConfig(seed, 0)
	if seed != 1 {
		cfg.Jitter.Seed ^= seedMix(seed)
	}
	return cfg
}

// env is a built world and HD map, shared read-only by every stack of a
// run.
type env struct {
	scen *world.Scenario
	m    *hdmap.Map
}

// setup builds the world, the HD map and one stack, repeats times, and
// returns the last environment and stack. setup_s is the median CPU
// time of one set-up; the traced run reports the parts.
func setup(r *run, cfg autoware.Config, repeats int) (env, *autoware.Stack, error) {
	var total, worldS, mapS, stackMS []float64
	var e env
	var st *autoware.Stack
	for i := 0; i < repeats; i++ {
		c0 := cpuSeconds()
		scen, err := world.BuildScenario(cfg.Scenario)
		if err != nil {
			return env{}, nil, fmt.Errorf("building world: %w", err)
		}
		c1 := cpuSeconds()
		m, err := hdmap.Build(scen, cfg.Map)
		if err != nil {
			return env{}, nil, fmt.Errorf("building HD map: %w", err)
		}
		c2 := cpuSeconds()
		st, err = autoware.BuildWithMap(cfg, scen, m)
		if err != nil {
			return env{}, nil, fmt.Errorf("building stack: %w", err)
		}
		c3 := cpuSeconds()
		e = env{scen, m}
		total = append(total, c3-c0)
		worldS = append(worldS, c1-c0)
		mapS = append(mapS, c2-c1)
		stackMS = append(stackMS, 1000*(c3-c2))
	}
	r.set("setup_s", median(total))
	r.set("world.build_s", median(worldS))
	r.set("hdmap.build_s", median(mapS))
	r.set("stack.build_ms", median(stackMS))
	return e, st, nil
}

// setupRepeatsFor is the number of set-ups a run performs: the traced
// run reports the parts of one set-up and needs no median.
func setupRepeatsFor(r *run) int {
	if r.trace {
		return 1
	}
	return setupRepeats
}

// episode is one measured drive: a fresh stack over the shared
// environment, run for a fixed virtual horizon.
type episode struct {
	stack   *autoware.Stack
	cpu     float64
	wall    time.Duration
	outputs string // SHA-256 of the recorder's bit-exact fingerprint
}

func runEpisode(cfg autoware.Config, e env, st *autoware.Stack, horizon time.Duration) (episode, error) {
	if st == nil {
		var err error
		if st, err = autoware.BuildWithMap(cfg, e.scen, e.m); err != nil {
			return episode{}, fmt.Errorf("building stack: %w", err)
		}
	}
	w0, c0 := time.Now(), cpuSeconds()
	st.Run(horizon)
	ep := episode{stack: st, cpu: cpuSeconds() - c0, wall: time.Since(w0)}
	ep.outputs = fmt.Sprintf("%x", sha256.Sum256([]byte(st.Recorder.Fingerprint())))
	return ep, nil
}

// episodes runs measured units until the next one would overrun the
// run's window, always at least one. Every unit of a run has the same
// inputs, so every unit must reproduce the first one's outputs; host
// cost is the median over units.
func episodes(r *run, unit func(first bool) (cpu float64, wall time.Duration, outputs string, err error)) ([]float64, error) {
	window := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	var cpus []float64
	var first string
	for i := 0; ; i++ {
		cpu, wall, out, err := unit(i == 0)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, cpu)
		if i == 0 {
			first = out
		} else {
			r.check(out == first, "episode %d outputs %s differ from episode 0's %s", i, out, first)
		}
		if time.Since(start)+wall > window {
			return cpus, nil
		}
	}
}

// setLatency reports a sample's median and tail, the tail at the
// highest percentile with at least ten samples beyond it.
func setLatency(r *run, what string, samples []float64) {
	p := tailPercentile(len(samples), tailCandidates)
	if !r.check(p > 0, "%s: %d latency samples, too few for a tail", what, len(samples)) {
		return
	}
	r.set("latency_p50_ms", percentile(samples, 50))
	r.set("latency_tail_ms", percentile(samples, p))
	r.logf("%s: %d samples, tail at p%g", what, len(samples), p)
}

// runDrive is the paper's main configuration: the full perception
// graph with SSD512 on the scripted drive, clean input.
func runDrive(r *run) {
	cfg := stackConfig(autoware.DetectorSSD512, autoware.ModeFull, r.seed)
	e, st, err := setup(r, cfg, setupRepeatsFor(r))
	if err != nil {
		r.fail(err)
		return
	}
	if r.trace {
		profileSim(r, cfg, e, st, 20*time.Second)
		return
	}
	cfgs := make([]autoware.Config, driveTraffics)
	envs := make([]env, driveTraffics)
	for i := range cfgs {
		scen, wc, err := trafficWorld(e, r.seed, i)
		if err != nil {
			r.fail(err)
			return
		}
		cfgs[i], envs[i] = cfg, env{scen, e.m}
		cfgs[i].Scenario = wc
	}
	var first []*autoware.Stack
	cpus, err := episodes(r, func(isFirst bool) (float64, time.Duration, string, error) {
		var cpu float64
		var wall time.Duration
		var outputs string
		for i := range cfgs {
			ep, err := runEpisode(cfgs[i], envs[i], st, driveHorizon)
			st = nil
			if err != nil {
				return 0, 0, "", err
			}
			if isFirst {
				first = append(first, ep.stack)
				checkDrive(r, ep.stack)
				r.outputs[fmt.Sprintf("drive.traffic%d.fingerprint", i)] = ep.outputs
			}
			cpu, wall, outputs = cpu+ep.cpu, wall+ep.wall, outputs+ep.outputs
		}
		return cpu, wall, outputs, nil
	})
	if err != nil {
		r.fail(err)
		return
	}
	r.set("sim_s_per_cpu_s", driveTraffics*driveHorizon.Seconds()/median(cpus))
	// The worst path of the first realization, over both realizations.
	path, _ := first[0].Recorder.EndToEnd()
	var samples []float64
	for _, st := range first {
		samples = append(samples, st.Recorder.PathSamples(path)...)
	}
	setLatency(r, "worst path "+path, samples)
	r.set("heap_live_mb", heapLiveMB())
	keepAlive(e, first)
	r.logf("%d units of %d x %v virtual", len(cpus), driveTraffics, driveHorizon)
}

// checkDrive asserts the drive exercised the whole graph and stayed
// localized.
func checkDrive(r *run, st *autoware.Stack) {
	for _, n := range perceptionNodes {
		r.check(len(st.Recorder.NodeSamples(n)) > 0, "node %s has no post-warmup samples", n)
	}
	for _, p := range st.Recorder.PathNames() {
		r.check(len(st.Recorder.PathSamples(p)) > 0, "path %s has no post-warmup samples", p)
	}
	pose, ok := st.NDT.Pose()
	truth := st.Scenario.At(st.Sim.Now().Seconds()).Ego.Pose
	if r.check(ok, "localization never initialized") {
		d := pose.XY().Dist(truth.XY())
		r.check(d <= maxPoseErrorM, "final NDT pose %.2f m from ground truth (limit %.0f m)", d, maxPoseErrorM)
	}
}

// runVision is the isolated-profiling configuration (Fig. 8): the
// detector alone, SSD512 then YOLOv3-416.
func runVision(r *run) {
	ssd := stackConfig(autoware.DetectorSSD512, autoware.ModeVisionStandalone, r.seed)
	yolo := stackConfig(autoware.DetectorYOLOv3, autoware.ModeVisionStandalone, r.seed)
	e, st, err := setup(r, ssd, setupRepeatsFor(r))
	if err != nil {
		r.fail(err)
		return
	}
	if r.trace {
		profileSim(r, ssd, e, st, visionHorizon)
		profileYOLO(r, yolo, e, visionHorizon)
		return
	}
	var first *autoware.Stack
	cpus, err := episodes(r, func(isFirst bool) (float64, time.Duration, string, error) {
		a, err := runEpisode(ssd, e, st, visionHorizon)
		st = nil
		if err != nil {
			return 0, 0, "", err
		}
		b, err := runEpisode(yolo, e, nil, visionHorizon)
		if err != nil {
			return 0, 0, "", err
		}
		if isFirst {
			first = a.stack
			for _, ep := range []episode{a, b} {
				r.check(len(ep.stack.Recorder.NodeSamples(autoware.VisionNodeName)) > 0,
					"%s produced no detector outputs", ep.stack.Config.Detector)
			}
			r.outputs["vision.SSD512.fingerprint"] = a.outputs
			r.outputs["vision.YOLOv3-416.fingerprint"] = b.outputs
		}
		return a.cpu + b.cpu, a.wall + b.wall, a.outputs + b.outputs, nil
	})
	if err != nil {
		r.fail(err)
		return
	}
	r.set("sim_s_per_cpu_s", 2*visionHorizon.Seconds()/median(cpus))
	setLatency(r, "SSD512 detector", first.Recorder.NodeSamples(autoware.VisionNodeName))
	r.set("heap_live_mb", heapLiveMB())
	keepAlive(e, first)
	r.logf("%d episodes of 2 x %v virtual", len(cpus), visionHorizon)
}
