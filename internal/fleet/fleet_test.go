package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/scenario"
	"repro/internal/testenv"
	"repro/internal/world"
)

// runnerFunc adapts a function to the Runner interface for tests.
type runnerFunc func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error)

func (f runnerFunc) Run(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
	return f(ctx, spec, det, d)
}

// passResolve resolves any name to a bare spec, so fake-runner tests
// exercise the service machinery without the scenario registry.
func passResolve(name string) (scenario.Spec, error) {
	return scenario.Spec{Name: name}, nil
}

// mustNew builds a service or fails the test.
func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return svc
}

func waitDone(t *testing.T, s *Service, id int64) Record {
	t.Helper()
	// Generous: one real job is two full simulation legs, and the race
	// detector slows them by an order of magnitude.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rec, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for job %d: %v", id, err)
	}
	return rec
}

// TestFleetIsolationUnderChaos is the headline robustness contract:
// with per-vehicle crash and stall faults injected into some tenants,
// the fleet service stays up, unaffected tenants' reports are
// byte-identical to solo runs, and saturating the bounded admission
// queue produces explicit rejections.
func TestFleetIsolationUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	const dur = 8 * time.Second

	// The ground truth: the scenario run solo, outside the service.
	spec, err := scenario.ByName(scenario.NameCameraStall)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := scenario.RunWithEnv(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, dur)
	if err != nil {
		t.Fatal(err)
	}
	var soloRep bytes.Buffer
	solo.WriteReport(&soloRep)

	svc := mustNew(t, Config{
		Workers:     2,
		QueueDepth:  4,
		Duration:    dur,
		RetryBudget: 1,
		RetryBase:   10 * time.Millisecond,
		AllowChaos:  true,
		// Park the ladder so a full queue answers ErrFleetSaturated —
		// the explicit-rejection contract under test here; ladder
		// transitions get their own test.
		ShedHighWater:  2,
		DrainHighWater: 2,
	})
	defer svc.Close()

	// Chaos tenants: mallory's vehicle panics on every attempt (crash
	// isolation + dead letter); sia's stalls until its deadline
	// (timeout isolation). Both submitted first so they share the fleet
	// with alice's healthy run.
	mallory, err := svc.Submit(Job{
		Tenant: "mallory", Priority: 2, Scenario: scenario.NameCameraStall, Seed: 7,
		Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	sia, err := svc.Submit(Job{
		Tenant: "sia", Priority: 2, Scenario: scenario.NameCameraStall, Seed: 8,
		Deadline: 300 * time.Millisecond,
		Chaos:    &Chaos{Kind: faults.KindStall, Attempts: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := svc.Submit(Job{Tenant: "alice", Priority: 1, Scenario: scenario.NameCameraStall})
	if err != nil {
		t.Fatal(err)
	}

	malloryRec := waitDone(t, svc, mallory.ID)
	if malloryRec.State != StateFailed || !malloryRec.DeadLetter {
		t.Errorf("mallory: state %s dead-letter %v, want failed dead-letter", malloryRec.State, malloryRec.DeadLetter)
	}
	for _, a := range malloryRec.Attempts {
		if a.Outcome != "crash" {
			t.Errorf("mallory attempt outcome %q, want crash", a.Outcome)
		}
	}
	if want := 2; len(malloryRec.Attempts) != want { // 1 try + 1 retry
		t.Errorf("mallory made %d attempts, want %d", len(malloryRec.Attempts), want)
	}
	siaRec := waitDone(t, svc, sia.ID)
	if siaRec.State != StateFailed {
		t.Errorf("sia: state %s, want failed (deadline)", siaRec.State)
	}
	if len(siaRec.Attempts) == 0 || siaRec.Attempts[0].Outcome != "timeout" {
		t.Errorf("sia attempts %+v, want a timeout outcome", siaRec.Attempts)
	}

	// Tenant isolation: alice's report is byte-identical to the solo
	// run despite sharing the fleet with crashing and stalling tenants.
	aliceRec := waitDone(t, svc, alice.ID)
	if aliceRec.State != StateDone {
		t.Fatalf("alice: state %s (%s), want done", aliceRec.State, aliceRec.Err)
	}
	if !bytes.Equal(aliceRec.Report(), soloRep.Bytes()) {
		t.Errorf("alice's fleet report diverged from the solo run (%d vs %d bytes)",
			len(aliceRec.Report()), soloRep.Len())
	}

	// Determinism under caching: a duplicate submission is served from
	// the cache, still byte-identical.
	bob, err := svc.Submit(Job{Tenant: "bob", Priority: 1, Scenario: scenario.NameCameraStall})
	if err != nil {
		t.Fatal(err)
	}
	bobRec := waitDone(t, svc, bob.ID)
	if !bobRec.CacheHit {
		t.Errorf("bob's duplicate job missed the cache")
	}
	if !bytes.Equal(bobRec.Report(), soloRep.Bytes()) {
		t.Errorf("bob's cached report diverged from the solo run")
	}

	// Saturation: two stall vehicles pin both workers, four more jobs
	// fill the bounded queue, and the next submission is explicitly
	// rejected — never buffered without bound.
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(Job{
			Tenant: "burst", Priority: 2, Scenario: "x", Seed: uint64(100 + i),
			Deadline: time.Second, Chaos: &Chaos{Kind: faults.KindStall, Attempts: 99},
		}); err != nil {
			t.Fatalf("burst blocker %d: %v", i, err)
		}
	}
	var sawSaturated bool
	for i := 0; i < 8; i++ {
		_, err := svc.Submit(Job{
			Tenant: "burst", Priority: 2, Scenario: "x", Seed: uint64(200 + i),
			Deadline: time.Second, Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 99},
		})
		if errors.Is(err, ErrFleetSaturated) {
			sawSaturated = true
			break
		}
		if err != nil {
			t.Fatalf("burst job %d: unexpected error %v", i, err)
		}
	}
	if !sawSaturated {
		t.Errorf("filling the bounded queue never produced ErrFleetSaturated")
	}

	// The service is still up and accounting: /fleetz answers, the
	// healthy tenants' numbers are intact, the chaos is in the ledger.
	st := svc.Fleetz()
	if st.Fleet.Completed < 2 {
		t.Errorf("fleet completed %d jobs, want >= 2 (alice + bob)", st.Fleet.Completed)
	}
	if st.Fleet.Rejected < 1 {
		t.Errorf("fleet rejected %d, want >= 1 (saturation)", st.Fleet.Rejected)
	}
	if st.PoolPanics < 2 {
		t.Errorf("pool captured %d panics, want >= 2 (mallory's attempts)", st.PoolPanics)
	}
	if len(st.DeadLetters) < 1 {
		t.Errorf("no dead letters recorded; mallory's job should be one")
	}
	var aliceStatus, malloryStatus *TenantStatus
	for i := range st.Tenants {
		switch st.Tenants[i].Tenant {
		case "alice":
			aliceStatus = &st.Tenants[i]
		case "mallory":
			malloryStatus = &st.Tenants[i]
		}
	}
	if aliceStatus == nil || aliceStatus.Completed != 1 || aliceStatus.Failed != 0 {
		t.Errorf("alice tenant status %+v, want 1 completed 0 failed", aliceStatus)
	}
	if malloryStatus == nil || malloryStatus.Failed != 1 || malloryStatus.Retries != 1 {
		t.Errorf("mallory tenant status %+v, want 1 failed 1 retry", malloryStatus)
	}
}

// TestFleetDeadlineFinal proves the job deadline propagates as context
// cancellation into the attempt and is final: no retry resurrects a
// job whose wall-clock budget is spent.
func TestFleetDeadlineFinal(t *testing.T) {
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, RetryBudget: 3, RetryBase: 5 * time.Millisecond,
		Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			<-ctx.Done() // a vehicle that never finishes on its own
			return nil, ctx.Err()
		}),
	})
	defer svc.Close()

	start := time.Now()
	rec, err := svc.Submit(Job{Tenant: "slow", Scenario: "hang", Deadline: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, rec.ID)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline job took %v to fail; cancellation did not propagate", elapsed)
	}
	if final.State != StateFailed || !strings.Contains(final.Err, "deadline") {
		t.Errorf("state %s err %q, want failed with a deadline error", final.State, final.Err)
	}
	if len(final.Attempts) != 1 {
		t.Errorf("deadline job made %d attempts, want exactly 1 (deadline is final, not transient)", len(final.Attempts))
	}
}

// TestFleetAttemptTimeoutRetries distinguishes the two timers: an
// attempt timeout is transient (the job retries on its backoff
// schedule), while the job deadline is final.
func TestFleetAttemptTimeoutRetries(t *testing.T) {
	var calls atomic.Int64
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, RetryBudget: 2, RetryBase: 5 * time.Millisecond,
		AttemptTimeout: 40 * time.Millisecond,
		Resolve:        passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done() // first attempt stalls past the attempt timeout
				return nil, ctx.Err()
			}
			return &RunResult{Report: []byte("ok\n"), E2EP99: 1}, nil
		}),
	})
	defer svc.Close()

	rec, err := svc.Submit(Job{Tenant: "flaky", Scenario: "stall-once"})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, rec.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done after one timed-out attempt", final.State, final.Err)
	}
	if final.Retries != 1 || len(final.Attempts) != 2 {
		t.Errorf("retries=%d attempts=%d, want 1 retry over 2 attempts", final.Retries, len(final.Attempts))
	}
	if final.Attempts[0].Outcome != "timeout" || final.Attempts[1].Outcome != "ok" {
		t.Errorf("attempt outcomes %+v, want [timeout ok]", final.Attempts)
	}
}

// TestFleetPanicIsolation proves a panicking vehicle costs exactly its
// own job: the panic is captured as the attempt error, the job dead-
// letters after its retry budget, and the service keeps serving other
// tenants on the same workers.
func TestFleetPanicIsolation(t *testing.T) {
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 8, RetryBudget: 1, RetryBase: 2 * time.Millisecond,
		Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			if spec.Name == "corrupt" {
				panic("corrupt scenario state")
			}
			return &RunResult{Report: []byte("report:" + spec.Name + "\n"), E2EP99: 2}, nil
		}),
	})
	defer svc.Close()

	evil, err := svc.Submit(Job{Tenant: "evil", Scenario: "corrupt"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := svc.Submit(Job{Tenant: "good", Scenario: "healthy"})
	if err != nil {
		t.Fatal(err)
	}

	evilRec := waitDone(t, svc, evil.ID)
	if evilRec.State != StateFailed || !evilRec.DeadLetter {
		t.Errorf("evil: state %s dead-letter %v, want failed dead-letter", evilRec.State, evilRec.DeadLetter)
	}
	// Records carry error text; the dead-letter error must name the
	// exhausted retry budget.
	if !strings.Contains(evilRec.Err, ErrRetriesExhausted.Error()) {
		t.Errorf("evil err %q, want wrapped ErrRetriesExhausted", evilRec.Err)
	}
	goodRec := waitDone(t, svc, good.ID)
	if goodRec.State != StateDone || string(goodRec.Report()) != "report:healthy\n" {
		t.Errorf("good tenant's job did not survive the neighbour's panic: %+v", goodRec)
	}
	if got := svc.Fleetz().PoolPanics; got != 2 {
		t.Errorf("pool recorded %d panics, want 2 (evil's two attempts)", got)
	}
}

// TestFleetLadder walks the degradation ladder end to end: nominal
// under light load, shedding (evicting and rejecting best-effort
// priority) past the shed high-water mark, draining past the drain
// mark, and back to nominal once the backlog clears.
func TestFleetLadder(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 16)
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, RetryBudget: 1, RetryBase: time.Millisecond,
		ShedHighWater: 0.5, DrainHighWater: 0.9, LowWater: 0.1, ShedPriority: 1,
		Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			started <- spec.Name
			select {
			case <-release:
			case <-ctx.Done():
			}
			return &RunResult{Report: []byte("ok\n")}, nil
		}),
	})
	defer svc.Close()

	// Occupy the single worker so everything after queues.
	blocker, err := svc.Submit(Job{Tenant: "t", Priority: 5, Scenario: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never started")
	}
	if got := svc.State(); got != LadderNominal {
		t.Fatalf("state %s, want nominal under light load", got)
	}

	// One best-effort job queues while nominal...
	bestEffort, err := svc.Submit(Job{Tenant: "t", Priority: 0, Scenario: "cheap"})
	if err != nil {
		t.Fatal(err)
	}
	// ...then a protected job pushes occupancy to the shed mark: the
	// ladder enters shedding and evicts the queued best-effort job.
	if _, err := svc.Submit(Job{Tenant: "t", Priority: 5, Scenario: "p1"}); err != nil {
		t.Fatal(err)
	}
	if got := svc.State(); got != LadderShedding {
		t.Fatalf("state %s, want shedding at %d/%d occupancy", got, 2, 4)
	}
	shedRec := waitDone(t, svc, bestEffort.ID)
	if shedRec.State != StateShed {
		t.Errorf("queued best-effort job state %s, want shed", shedRec.State)
	}
	// New best-effort submissions are rejected while shedding…
	if _, err := svc.Submit(Job{Tenant: "t", Priority: 0, Scenario: "cheap2"}); !errors.Is(err, ErrFleetShedding) {
		t.Errorf("best-effort submit while shedding: err %v, want ErrFleetShedding", err)
	}
	// …but protected-priority load is still admitted, up to draining.
	for i := 0; i < 3; i++ {
		if _, err := svc.Submit(Job{Tenant: "t", Priority: 5, Scenario: fmt.Sprintf("p%d", 2+i)}); err != nil {
			t.Fatalf("protected job %d: %v", i, err)
		}
	}
	if got := svc.State(); got != LadderDraining {
		t.Fatalf("state %s, want draining with the queue full", got)
	}
	if _, err := svc.Submit(Job{Tenant: "t", Priority: 9, Scenario: "vip"}); !errors.Is(err, ErrFleetDraining) {
		t.Errorf("submit while draining: err %v, want ErrFleetDraining even at high priority", err)
	}

	// Clear the backlog: the ladder steps back down to nominal and the
	// service admits best-effort load again.
	close(release)
	waitDone(t, svc, blocker.ID)
	deadline := time.Now().Add(10 * time.Second)
	for svc.State() != LadderNominal {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at %s after the backlog drained", svc.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	again, err := svc.Submit(Job{Tenant: "t", Priority: 0, Scenario: "cheap3"})
	if err != nil {
		t.Fatalf("best-effort submit after recovery: %v", err)
	}
	if rec := waitDone(t, svc, again.ID); rec.State != StateDone {
		t.Errorf("post-recovery job state %s, want done", rec.State)
	}
}

// TestFleetCache proves the result cache serves duplicate job keys
// without re-simulation and distinguishes keys by seed.
func TestFleetCache(t *testing.T) {
	var runs atomic.Int64
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 8,
		Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			runs.Add(1)
			return &RunResult{Report: []byte(fmt.Sprintf("report seed=%d\n", spec.Seed)), E2EP99: 3}, nil
		}),
	})
	defer svc.Close()

	first, err := svc.Submit(Job{Tenant: "a", Scenario: "s", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	firstRec := waitDone(t, svc, first.ID)

	dup, err := svc.Submit(Job{Tenant: "b", Scenario: "s", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dupRec := waitDone(t, svc, dup.ID)
	if !dupRec.CacheHit {
		t.Errorf("duplicate key was re-run instead of cached")
	}
	if !bytes.Equal(dupRec.Report(), firstRec.Report()) {
		t.Errorf("cached report differs from the original")
	}

	other, err := svc.Submit(Job{Tenant: "a", Scenario: "s", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec := waitDone(t, svc, other.ID); rec.CacheHit {
		t.Errorf("different seed hit the cache; the key must include the seed")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runner executed %d times, want 2 (one per distinct key)", got)
	}
}

// TestFleetValidation pins the admission-time rejections.
func TestFleetValidation(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 2, Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			return &RunResult{Report: []byte("ok\n")}, nil
		})})
	defer svc.Close()

	cases := []Job{
		{},                           // neither scenario nor params
		{Scenario: "a", Params: "b"}, // both
		{Scenario: "a", Duration: -time.Second},
		{Scenario: "a", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 1}}, // chaos disabled
	}
	for i, job := range cases {
		if _, err := svc.Submit(job); !errors.Is(err, ErrBadJob) {
			t.Errorf("case %d: err %v, want ErrBadJob", i, err)
		}
	}
}

// TestFleetCloseFailsQueued proves shutdown is explicit: queued jobs
// fail with the closed sentinel, and new submissions are rejected.
func TestFleetCloseFailsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	svc := mustNew(t, Config{Workers: 1, QueueDepth: 4, Resolve: passResolve,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			started <- struct{}{}
			<-release
			return &RunResult{Report: []byte("ok\n")}, nil
		})})

	blocker, err := svc.Submit(Job{Tenant: "t", Scenario: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(Job{Tenant: "t", Scenario: "queued"})
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() { svc.Close(); close(closed) }()
	// The queued job fails promptly; the in-flight blocker is allowed
	// to finish once released.
	queuedRec := waitDone(t, svc, queued.ID)
	if queuedRec.State != StateFailed || !strings.Contains(queuedRec.Err, "closed") {
		t.Errorf("queued job at shutdown: state %s err %q, want failed/closed", queuedRec.State, queuedRec.Err)
	}
	close(release)
	<-closed
	if rec := waitDone(t, svc, blocker.ID); rec.State != StateDone {
		t.Errorf("in-flight job state %s after Close, want done (drained, not killed)", rec.State)
	}
	if _, err := svc.Submit(Job{Tenant: "t", Scenario: "late"}); !errors.Is(err, ErrFleetClosed) {
		t.Errorf("submit after Close: err %v, want ErrFleetClosed", err)
	}
}

// TestFleetParamsJobs covers the params-line job path: a canonical
// world-params line resolves to a guarded+supervised spec over that
// generated world, and a malformed line fails the job (not the
// service) with the validation sentinel.
func TestFleetParamsJobs(t *testing.T) {
	line := world.MarshalParams(world.DefaultScenarioConfig())
	var got scenario.Spec
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			got = spec
			return &RunResult{Report: []byte("ok\n")}, nil
		}),
	})
	defer svc.Close()

	rec, err := svc.Submit(Job{Tenant: "p", Params: line, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, rec.ID)
	if final.State != StateDone {
		t.Fatalf("params job state %s (%s), want done", final.State, final.Err)
	}
	if got.World == nil || world.MarshalParams(*got.World) != line {
		t.Errorf("params job resolved to a different world")
	}
	if !got.Guard || !got.Supervise {
		t.Errorf("params jobs must run the hardened stack (guard+supervise)")
	}
	if got.Seed != 9 {
		t.Errorf("params job seed %d, want 9", got.Seed)
	}
	// The resolved spec injects no faults; the production runner must
	// still drive it and render a report.
	out, err := defaultRunner().Run(context.Background(), got, autoware.DetectorSSD300, 4*time.Second)
	if err != nil {
		t.Fatalf("params job through the production runner: %v", err)
	}
	if len(out.Report) == 0 {
		t.Error("params job through the production runner rendered an empty report")
	}

	bad, err := svc.Submit(Job{Tenant: "p", Params: "not a params line"})
	if err != nil {
		t.Fatal(err)
	}
	badFinal := waitDone(t, svc, bad.ID)
	if badFinal.State != StateFailed || !strings.Contains(badFinal.Err, ErrBadJob.Error()) {
		t.Errorf("bad params job: state %s err %q, want failed with ErrBadJob", badFinal.State, badFinal.Err)
	}
}
