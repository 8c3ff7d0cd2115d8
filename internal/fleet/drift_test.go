package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/scenario"
)

func TestKeyPrefix(t *testing.T) {
	cases := map[string]string{
		"scenario=x|params=|seed=9|duration=8s|detector=SSD300": "scenario=x|params=",
		"scenario=x|params=": "scenario=x|params=",
		"":                   "",
	}
	for key, want := range cases {
		if got := keyPrefix(key); got != want {
			t.Errorf("keyPrefix(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestVirtualDriftDetection wires the drift detector to per-scenario
// virtual-time baselines: a family whose recent virtual p99 drifts
// past DriftFactor × its own established baseline shows up in
// Status.Drifting and trips the shedding ladder — host wall clock
// never enters the judgment.
func TestVirtualDriftDetection(t *testing.T) {
	var e2e atomic.Value
	e2e.Store(10.0)
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 32, Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			return &RunResult{Report: []byte("ok\n"), E2EP99: e2e.Load().(float64)}, nil
		}),
	})
	defer svc.Close()

	submit := func(seed uint64) {
		t.Helper()
		rec, err := svc.Submit(Job{Tenant: "t", Priority: 1, Scenario: "drifty", Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if final := waitDone(t, svc, rec.ID); final.State != StateDone {
			t.Fatalf("seed %d: state %s", seed, final.State)
		}
	}

	// Establish the family baseline at virtual p99 = 10ms. Seeds vary,
	// so each run is a fresh key in the same family (no cache hits).
	for seed := uint64(1); seed <= baselineMin; seed++ {
		submit(seed)
	}
	if drifting := svc.Fleetz().Drifting; len(drifting) != 0 {
		t.Fatalf("drifting %v before any regression", drifting)
	}

	// The scenario family regresses 10x in virtual time.
	e2e.Store(100.0)
	for seed := uint64(100); seed < 100+baselineMin; seed++ {
		submit(seed)
	}

	st := svc.Fleetz()
	if len(st.Drifting) != 1 || st.Drifting[0] != "scenario=drifty|params=" {
		t.Fatalf("drifting = %v, want the drifty scenario family", st.Drifting)
	}
	if st.State != LadderShedding {
		t.Errorf("ladder %s under virtual drift, want shedding", st.State)
	}
	// Shedding is live: best-effort load is rejected.
	if _, err := svc.Submit(Job{Tenant: "t", Priority: 0, Scenario: "besteffort"}); !errors.Is(err, ErrFleetShedding) {
		t.Errorf("best-effort submit under drift: %v, want ErrFleetShedding", err)
	}
	// Protected-class load still lands.
	if _, err := svc.Submit(Job{Tenant: "t", Priority: 5, Scenario: "drifty", Seed: 999}); err != nil {
		t.Errorf("protected submit under drift: %v", err)
	}
}
