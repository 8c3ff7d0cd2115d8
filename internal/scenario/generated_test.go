package scenario

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/testenv"
	"repro/internal/world"
)

// TestGeneratedRegistry pins the contract of the pinned-scenario
// registry: at least one search winner is committed, every spec
// carries its generated world, resolves through ByName, appears in
// Names after the builtins, and fits the golden drive horizon.
func TestGeneratedRegistry(t *testing.T) {
	t.Parallel()
	specs, err := Generated()
	if err != nil {
		t.Fatalf("Generated() = %v; every committed pin must parse", err)
	}
	if len(specs) == 0 {
		t.Fatal("no generated scenarios embedded; expected at least the first pinned search winner")
	}
	names := Names()
	builtinCount := len(builtins())
	if len(names) != builtinCount+len(specs) {
		t.Fatalf("Names() has %d entries, want %d builtins + %d generated", len(names), builtinCount, len(specs))
	}
	for i, spec := range specs {
		if spec.World == nil {
			t.Fatalf("%s: generated spec without a world", spec.Name)
		}
		if err := spec.World.Validate(); err != nil {
			t.Fatalf("%s: pinned world invalid: %v", spec.Name, err)
		}
		if !spec.Guard || !spec.Supervise {
			t.Fatalf("%s: generated specs must measure the hardened stack (guard+supervise)", spec.Name)
		}
		if min := spec.MinDuration(); min > transportGoldenDuration {
			t.Fatalf("%s: horizon %v exceeds the golden drive %v", spec.Name, min, transportGoldenDuration)
		}
		got, err := ByName(spec.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", spec.Name, err)
		}
		if got.Name != spec.Name || *got.World != *spec.World {
			t.Fatalf("%s: ByName returned a different spec", spec.Name)
		}
		if names[builtinCount+i] != spec.Name {
			t.Fatalf("Names()[%d] = %s, want %s (generated after builtins)", builtinCount+i, names[builtinCount+i], spec.Name)
		}
	}
}

// TestGeneratedScenarioRepeatable extends the determinism contract to
// procedurally generated worlds: for three sampled seeds, two full-stack
// drives through the generated scenario, each on a freshly built stack,
// must produce a bit-exact latency fingerprint. Generated worlds
// exercise split RNG streams, pedestrian bursts and weather noise, none
// of which may carry state from one drive into the next.
func TestGeneratedScenarioRepeatable(t *testing.T) {
	t.Parallel()
	const duration = 6 * time.Second // short drives: the compact space keeps cities small
	for _, seed := range []uint64{11, 22, 33} {
		cfg, err := world.Generate(world.CompactSpace(), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scen, m, err := autoware.Environment(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		run := func() string {
			st, err := buildStack(scen, m, autoware.DetectorSSD300, true, 0, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st.Run(duration)
			return st.Recorder.Fingerprint()
		}

		if run() != run() {
			t.Errorf("seed %d: fingerprint differs between two drives", seed)
		}
	}
}

// TestBuildEnvUsesSpecWorld pins the environment the entry points that
// take none (Run, Tune) drive in: a pinned generated scenario gets the
// city and HD map of its own world config, never the scripted default's
// — a fault profile pinned on a generated city means nothing applied to
// another one.
func TestBuildEnvUsesSpecWorld(t *testing.T) {
	t.Parallel()
	spec, err := ByName("gen-fog-stall")
	if err != nil {
		t.Fatal(err)
	}
	scen, m, err := autoware.Environment(spec.worldConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := world.BuildScenario(*spec.World)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scen.City, want.City) {
		t.Errorf("%s: environment city differs from its world config's city", spec.Name)
	}
	if reflect.DeepEqual(scen.City, testenv.Scenario().City) {
		t.Errorf("%s: environment is the scripted default city", spec.Name)
	}
	if m.Scans == testenv.Map().Scans && m.NDT.Len() == testenv.Map().NDT.Len() {
		t.Errorf("%s: HD map matches the scripted default city's map", spec.Name)
	}
}

// TestRunSharesEnvironments pins the clean-leg memo's use of the
// shared environments: a second Run over equal world params drives the
// pointers autoware.Environment returned for the first, so it is
// served the first one's clean leg. The fleet runs most jobs on their
// faulted leg alone because of it. TestEnvironmentShares in
// internal/autoware pins the pointers themselves.
func TestRunSharesEnvironments(t *testing.T) {
	// Not parallel: it counts the process-wide memo's hits, which the
	// parallel tests move.
	a, err := world.Generate(world.CompactSpace(), 11)
	if err != nil {
		t.Fatal(err)
	}
	hits := func() int {
		cleanLegs.mu.Lock()
		defer cleanLegs.mu.Unlock()
		return cleanLegs.hits
	}
	run := func() {
		t.Helper()
		if _, err := Run(context.Background(), Spec{Name: "clean", World: &a}, autoware.DetectorSSD300, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	run()
	before := hits()
	run()
	if got := hits() - before; got != 1 {
		t.Errorf("a second run over one world hit the clean-leg memo %d times, want 1", got)
	}
}
