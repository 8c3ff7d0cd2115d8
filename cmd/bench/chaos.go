package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autoware"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/world"
)

// chaosScenarios each drive a different hook layer: deadline shedding
// with transport evictions, the guard's duplicate window, supervisor
// restart with checkpoint restore, and the EDF scheduler with its chain
// log.
var chaosScenarios = []string{
	scenario.NameOverloadShed,
	scenario.NameDupStorm,
	scenario.NameCrashRecover,
	scenario.NameContentionTuned,
}

const (
	// chaosDuration is the golden-report drive length.
	chaosDuration = 10 * time.Second
	// chaosWorkers runs the scenarios two at a time, one per core of a
	// 2-vCPU host; host cost is the batch's process CPU either way.
	chaosWorkers = 2
	// goldensFile pins each builtin scenario's report hash (guard and
	// supervision forced on, SSD300, 10 s).
	goldensFile = "internal/scenario/testdata/transport_goldens.txt"
)

// parseGoldens reads "<name> sha256=<hex>" lines.
func parseGoldens(data []byte) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !strings.HasPrefix(fields[1], "sha256=") {
			return nil, fmt.Errorf("goldens line %d: want \"<name> sha256=<hex>\", got %q", line, text)
		}
		out[fields[0]] = strings.TrimPrefix(fields[1], "sha256=")
	}
	return out, sc.Err()
}

// chaosSpecs resolves the scenarios with guard and supervision forced on,
// and builds the world each one drives through. Seed 1 keeps every spec
// as pinned, over the scripted drive. Any other seed XORs the fault seeds
// and gives each scenario its own traffic realization, so that a run's
// host cost averages over four of them rather than riding on one.
func chaosSpecs(e env, seed uint64) ([]scenario.Spec, []*world.Scenario, error) {
	specs := make([]scenario.Spec, len(chaosScenarios))
	scens := make([]*world.Scenario, len(chaosScenarios))
	for i, name := range chaosScenarios {
		spec, err := scenario.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		spec.Guard, spec.Supervise = true, true
		scens[i] = e.scen
		if seed != 1 {
			spec.Seed ^= seedMix(seed)
			scen, wc, err := trafficWorld(e, seed, i)
			if err != nil {
				return nil, nil, err
			}
			scens[i], spec.World = scen, &wc
		}
		specs[i] = spec
	}
	return specs, scens, nil
}

// worstFaulted is the faulted leg's worst computation path (largest
// mean, the paper's end-to-end definition).
func worstFaulted(res *scenario.Result) mathx.Summary {
	var worst mathx.Summary
	for _, p := range res.Paths {
		if p.Faulted.Count > 0 && (worst.Count == 0 || p.Faulted.Mean > worst.Mean) {
			worst = p.Faulted
		}
	}
	return worst
}

// runChaos runs the hardened stack under four fault storms through the
// public scenario path, and checks every report against its pinned hash.
func runChaos(r *run) {
	cfg := stackConfig(autoware.DetectorSSD300, autoware.ModeFull, r.seed)
	e, _, err := setup(r, cfg, setupRepeatsFor(r))
	if err != nil {
		r.fail(err)
		return
	}
	specs, scens, err := chaosSpecs(e, r.seed)
	if err != nil {
		r.fail(err)
		return
	}
	var goldens map[string]string
	if r.seed == 1 {
		data, err := os.ReadFile(goldensFile)
		if err == nil {
			goldens, err = parseGoldens(data)
		}
		if err != nil {
			r.fail(fmt.Errorf("reading golden hashes: %w", err))
			return
		}
	}

	workers := chaosWorkers
	if r.trace {
		workers = 1 // per-scenario CPU needs the scenarios one at a time
	}
	results := make([]*scenario.Result, len(specs))
	errs := make([]error, len(specs))
	cpus := make([]float64, len(specs)) // meaningful one at a time only
	var next atomic.Int64
	var wg sync.WaitGroup
	c0 := cpuSeconds()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				s0 := cpuSeconds()
				results[i], errs[i] = scenario.RunWithEnv(scens[i], e.m, specs[i], autoware.DetectorSSD300, chaosDuration)
				cpus[i] = cpuSeconds() - s0
			}
		}()
	}
	wg.Wait()
	batchCPU := cpuSeconds() - c0

	var p50s, tails []float64
	events := 0
	for i, res := range results {
		name := specs[i].Name
		if !r.check(errs[i] == nil, "%s: %v", name, errs[i]) {
			continue
		}
		var rep bytes.Buffer
		res.WriteReport(&rep)
		hash := fmt.Sprintf("%x", sha256.Sum256(rep.Bytes()))
		r.outputs["chaos."+name] = hash
		if goldens != nil {
			r.check(hash == goldens[name], "%s: report sha256=%s, golden %s", name, hash, goldens[name])
		} else {
			r.check(len(res.Events) > 0, "%s: no fault events applied", name)
		}
		events += len(res.Events)
		worst := worstFaulted(res)
		if r.check(worst.Count > 0, "%s: no faulted-path samples", name) {
			p50s = append(p50s, worst.Median)
			tails = append(tails, worst.Q3)
			r.logf("%s: worst faulted path %d samples", name, worst.Count)
		}
		if r.trace {
			r.set("scenario."+name+".cpu_s", cpus[i])
		}
	}
	r.set("scenario.fault_events", float64(events))
	r.set("sim_s_per_cpu_s", 2*chaosDuration.Seconds()*float64(len(specs))/batchCPU)
	// A scenario report carries summaries, not samples, and shedding
	// leaves some worst paths with under 40 samples, so the chaos tail is
	// each worst path's third quartile rather than the ten-beyond rule's
	// pick, which would flip between p75 and p50 from seed to seed.
	if len(p50s) == len(specs) {
		r.set("latency_p50_ms", mathx.Mean(p50s))
		r.set("latency_tail_ms", mathx.Mean(tails))
	}
	if r.trace {
		// One clean leg of the same stack, timed untraced and then traced
		// and replayed layer by layer.
		if ref, ok := profileSim(r, cfg, e, nil, chaosDuration); ok {
			r.set("scenario.baseline_leg_cpu_s", ref.cpu)
		}
		return
	}
	r.set("heap_live_mb", heapLiveMB())
	keepAlive(e, results)
}
