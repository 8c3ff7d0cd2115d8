package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/mathx"
	"repro/internal/scenario"
)

// TestTokenBucket pins the bucket arithmetic against an injected
// clock: priming to the full burst, refill at the configured rate,
// capping at burst, and the retry-after hint when dry.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	b := &bucket{}

	// Primed full: the initial burst is admitted.
	for i := 0; i < 2; i++ {
		if wait, ok := b.take(now, 1, 2); !ok || wait != 0 {
			t.Fatalf("burst take %d: ok=%v wait=%v, want free admission", i, ok, wait)
		}
	}
	wait, ok := b.take(now, 1, 2)
	if ok {
		t.Fatal("dry bucket admitted a third take")
	}
	if wait < 900*time.Millisecond || wait > 1100*time.Millisecond {
		t.Errorf("dry bucket retry-after %v, want ~1s at 1 token/s", wait)
	}

	// One second later a whole token has accrued.
	now = now.Add(time.Second)
	if _, ok := b.take(now, 1, 2); !ok {
		t.Error("refilled bucket rejected a take")
	}

	// A long idle stretch caps at burst, not unbounded credit.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if _, ok := b.take(now, 1, 2); !ok {
			t.Fatalf("post-idle take %d rejected; refill did not cap at burst", i)
		}
	}
	if _, ok := b.take(now, 1, 2); ok {
		t.Error("idle refill exceeded the burst cap")
	}

	// Zero rate means unlimited.
	unlimited := &bucket{}
	for i := 0; i < 100; i++ {
		if _, ok := unlimited.take(now, 0, 1); !ok {
			t.Fatal("zero-rate bucket throttled")
		}
	}
}

// TestFleetThrottle drives the service-level rate limit with an
// injected clock: burst admitted, overflow rejected as a
// *ThrottleError matching ErrTenantThrottled, refill re-admits.
func TestFleetThrottle(t *testing.T) {
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 32, Resolve: passResolve,
		TenantRate: 1, TenantBurst: 2,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			return &RunResult{Report: []byte("ok\n"), E2EP99: 1}, nil
		}),
	})
	defer svc.Close()
	clock := time.Unix(1000, 0)
	svc.now = func() time.Time { return clock }

	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(Job{Tenant: "m", Scenario: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := svc.Submit(Job{Tenant: "m", Scenario: "s2"})
	if !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("overflow submit err %v, want ErrTenantThrottled", err)
	}
	var throttle *ThrottleError
	if !errors.As(err, &throttle) || throttle.Tenant != "m" || throttle.RetryAfter <= 0 {
		t.Fatalf("overflow error %#v, want *ThrottleError for tenant m with a positive hint", err)
	}

	// Another tenant is unaffected: buckets are per tenant.
	if _, err := svc.Submit(Job{Tenant: "other", Scenario: "s3"}); err != nil {
		t.Fatalf("other tenant throttled by m's bucket: %v", err)
	}

	// After the hinted wait the tenant is admitted again.
	clock = clock.Add(throttle.RetryAfter + time.Millisecond)
	if _, err := svc.Submit(Job{Tenant: "m", Scenario: "s4"}); err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}

	if got := svc.Fleetz().Fleet.Throttled; got != 1 {
		t.Errorf("throttled counter %d, want 1", got)
	}
}

// dispatchOrder queues jobs behind a blocker on a single worker, so
// the whole backlog is in the admit queue before dispatch picks any of
// it, and returns the order the jobs ran in. Each job's scenario name
// labels it.
func dispatchOrder(t *testing.T, limits map[string]TenantLimit, jobs []Job) []string {
	t.Helper()
	release := make(chan struct{})
	blocked := make(chan struct{})
	order := make(chan string, len(jobs))
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 16, Resolve: passResolve, Limits: limits,
		Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
			if spec.Name == "blocker" {
				blocked <- struct{}{}
				<-release
			} else {
				order <- spec.Name
			}
			return &RunResult{Report: []byte("ok\n"), E2EP99: 1}, nil
		}),
	})
	defer svc.Close()

	// Pin the single worker so the backlog queues in a known state.
	if _, err := svc.Submit(Job{Tenant: "z", Scenario: "blocker"}); err != nil {
		t.Fatal(err)
	}
	<-blocked
	recs := make([]*Record, len(jobs))
	for i, job := range jobs {
		rec, err := svc.Submit(job)
		if err != nil {
			t.Fatalf("submit %s: %v", job.Scenario, err)
		}
		recs[i] = rec
	}
	close(release)
	for _, rec := range recs {
		waitDone(t, svc, rec.ID)
	}
	close(order)
	var got []string
	for name := range order {
		got = append(got, name)
	}
	return got
}

// TestFairShareDRROrder pins the deficit-round-robin dispatch order.
// Across tenants: with tenant a at weight 2 and tenant b at weight 1, a
// backlog queued as a1..a3, b1..b3 dispatches a1 a2 b1 a3 b2 b3. Within
// one tenant: priority descending, then admission order, which is the
// only priority ordering dispatch has.
func TestFairShareDRROrder(t *testing.T) {
	tenants := func(names ...string) []Job {
		jobs := make([]Job, len(names))
		for i, name := range names {
			jobs[i] = Job{Tenant: name[:1], Scenario: name}
		}
		return jobs
	}
	priorities := func(names ...string) []Job {
		jobs := make([]Job, len(names))
		for i, name := range names {
			jobs[i] = Job{Tenant: "c", Scenario: name, Priority: int(name[1] - '0')}
		}
		return jobs
	}
	for _, tc := range []struct {
		name   string
		limits map[string]TenantLimit
		jobs   []Job
		want   []string
	}{
		{
			name:   "weight-2 round robin",
			limits: map[string]TenantLimit{"a": {Weight: 2}},
			jobs:   tenants("a1", "a2", "a3", "b1", "b2", "b3"),
			want:   []string{"a1", "a2", "b1", "a3", "b2", "b3"},
		},
		{
			// Named p<priority><admission index>.
			name: "priorities within one tenant",
			jobs: priorities("p00", "p21", "p12", "p23", "p04", "p15"),
			want: []string{"p21", "p23", "p12", "p15", "p00", "p04"},
		},
	} {
		got := dispatchOrder(t, tc.limits, tc.jobs)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: dispatched %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFairShareStarvation is the acceptance contract: a tenant
// bursting a large backlog cannot starve another tenant's small,
// steady trickle, while total throughput stays within 10% of the
// baseline. The baseline is the same workload with the trickle
// submitted under the burst's tenant, where dispatch is plain priority
// order and the trickle queues behind the whole backlog.
func TestFairShareStarvation(t *testing.T) {
	const (
		hogJobs   = 150
		mouseJobs = 8
		workMS    = 2
	)
	run := func(mouseTenant string) (mouseP99 float64, total time.Duration) {
		t.Helper()
		svc := mustNew(t, Config{
			Workers: 2, QueueDepth: 256, CacheSize: -1, Resolve: passResolve,
			Runner: runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
				time.Sleep(workMS * time.Millisecond)
				return &RunResult{Report: []byte("ok:" + spec.Name + "\n"), E2EP99: 1}, nil
			}),
		})
		defer svc.Close()

		start := time.Now()
		hog := make([]*Record, 0, hogJobs)
		for i := 0; i < hogJobs; i++ {
			rec, err := svc.Submit(Job{Tenant: "hog", Scenario: fmt.Sprintf("hog-%d", i)})
			if err != nil {
				t.Fatalf("hog submit %d (mouse as %s): %v", i, mouseTenant, err)
			}
			hog = append(hog, rec)
		}
		// The mouse trickles in behind the burst, waiting for each job:
		// its wall time is dominated by how long dispatch makes it queue.
		var mouseWall []float64
		for i := 0; i < mouseJobs; i++ {
			rec, err := svc.Submit(Job{Tenant: mouseTenant, Scenario: fmt.Sprintf("mouse-%d", i)})
			if err != nil {
				t.Fatalf("mouse submit %d (as %s): %v", i, mouseTenant, err)
			}
			final := waitDone(t, svc, rec.ID)
			mouseWall = append(mouseWall, final.WallMS)
		}
		for _, rec := range hog {
			waitDone(t, svc, rec.ID)
		}
		return mathx.Quantile(mouseWall, 0.99), time.Since(start)
	}

	fairP99, fairTotal := run("mouse")
	baseP99, baseTotal := run("hog")
	t.Logf("mouse p99: own tenant %.1fms vs hog's tenant %.1fms; total: %v vs %v",
		fairP99, baseP99, fairTotal, baseTotal)

	// Queued under the hog's tenant the mouse waits behind the hog's
	// whole backlog; under its own it waits a round-robin turn. Demand a
	// decisive separation, not a marginal one.
	if fairP99 > baseP99/2 {
		t.Errorf("fair-share mouse p99 %.1fms vs %.1fms in the hog's queue: starvation not prevented", fairP99, baseP99)
	}
	// Fairness must not cost throughput: the same work drains in
	// roughly the same time (10%% bound plus scheduling slack).
	bound := time.Duration(float64(baseTotal)*1.10) + 250*time.Millisecond
	if fairTotal > bound {
		t.Errorf("fair-share drained in %v, want <= %v (baseline %v + 10%%)", fairTotal, bound, baseTotal)
	}
}
