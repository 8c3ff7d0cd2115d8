package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/scenario"
)

// deterministicRunner reports by scenario name, so every run of a key,
// before a crash or after it, yields the same bytes; its E2E p99 is the
// name's length, so jobs differ in /fleetz's quantiles. Jobs named gated
// block until gate closes or their context ends, pinning the worker so
// a crash or a shutdown catches them in flight. A nil gate holds
// nothing.
func deterministicRunner(gated string, gate chan struct{}) runnerFunc {
	return func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
		if gate != nil && spec.Name == gated {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &RunResult{Report: []byte("report:" + spec.Name + "\n"), E2EP99: float64(len(spec.Name))}, nil
	}
}

// restartService stops svc ahead of a restart on its journal: with kill
// set, by killMidFlight, which leaves the raw WAL; otherwise by Close,
// which snapshots it. A job held on gate is released once admission has
// stopped, so it finishes inside Close or dies with the killed service.
func restartService(t *testing.T, svc *Service, gate chan struct{}, kill bool) {
	t.Helper()
	if kill {
		killMidFlight(t, svc, gate)
		return
	}
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		svc.mu.Lock()
		stopping := svc.closed
		svc.mu.Unlock()
		if stopping {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never stopped admission")
		}
		time.Sleep(time.Millisecond)
	}
	if gate != nil {
		close(gate)
	}
	<-closed
}

// killMidFlight simulates SIGKILL while jobs are queued and running:
// the journal handle drops first (nothing further persists), then the
// gated in-flight job is released so the dead service can be reaped.
func killMidFlight(t *testing.T, svc *Service, gate chan struct{}) {
	t.Helper()
	killed := make(chan struct{})
	go func() {
		svc.killForTest()
		close(killed)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		svc.mu.Lock()
		dropped := svc.jl == nil && svc.closed
		svc.mu.Unlock()
		if dropped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("killForTest never dropped the journal handle")
		}
		time.Sleep(time.Millisecond)
	}
	if gate != nil {
		close(gate)
	}
	<-killed
}

// TestFleetJournalCrashRecovery is the headline durability contract:
// kill the service mid-load, restart it on the same journal, and the
// completed reports are byte-identical to an uninterrupted run while
// every interrupted job re-runs to the identical result — with the
// retry schedule the dead process had planned.
func TestFleetJournalCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := Config{
		Workers: 1, QueueDepth: 16, RetryBudget: 2, RetryBase: time.Millisecond,
		Journal: dir, Resolve: passResolve, Runner: deterministicRunner("slow", gate),
	}

	// The uninterrupted control run: same jobs, no crash.
	controlGate := make(chan struct{})
	close(controlGate)
	control := mustNew(t, Config{
		Workers: 1, QueueDepth: 16, RetryBudget: 2, RetryBase: time.Millisecond,
		Resolve: passResolve, Runner: deterministicRunner("slow", controlGate),
	})
	want := map[string][]byte{}
	for _, name := range []string{"a", "b", "slow", "q1", "q2"} {
		rec, err := control.Submit(Job{Tenant: "t", Scenario: name})
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, control, rec.ID)
		if final.State != StateDone {
			t.Fatalf("control %s: state %s", name, final.State)
		}
		want[name] = final.Report()
	}
	control.Close()

	svc := mustNew(t, cfg)
	// Phase 1: two jobs complete and are journaled.
	phase1 := map[int64][]byte{}
	for _, name := range []string{"a", "b"} {
		rec, err := svc.Submit(Job{Tenant: "t", Scenario: name})
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, svc, rec.ID)
		if final.State != StateDone {
			t.Fatalf("phase-1 %s: state %s (%s)", name, final.State, final.Err)
		}
		phase1[rec.ID] = final.Report()
	}

	// Phase 2: "slow" pins the single worker, q1/q2 queue behind it.
	slow, err := svc.Submit(Job{Tenant: "t", Scenario: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, slow.ID, StateRunning)
	var queued []*Record
	for _, name := range []string{"q1", "q2"} {
		rec, err := svc.Submit(Job{Tenant: "t", Scenario: name})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, rec)
	}
	// The backoff schedule the dead process planned, to compare after
	// recovery: a pure function of (seed, key), so it must match.
	plannedBackoff := map[int64][]time.Duration{}
	for _, rec := range append([]*Record{slow}, queued...) {
		snap, _ := svc.Get(rec.ID)
		plannedBackoff[rec.ID] = snap.Backoff
	}

	killMidFlight(t, svc, gate)

	// Restart on the same journal. The gate is closed now, so "slow"
	// re-runs straight through.
	cfg.Runner = deterministicRunner("slow", gate)
	svc2 := mustNew(t, cfg)
	defer svc2.Close()

	st := svc2.Fleetz()
	if st.Journal == nil {
		t.Fatal("restarted service reports no journal")
	}
	if got := st.Journal.Recovered; got.Queued != 3 || got.Done != 2 {
		t.Errorf("recovered %+v, want 3 queued and 2 done", got)
	}

	// Completed reports survived byte-identically (and match control).
	for id, report := range phase1 {
		rec, ok := svc2.Get(id)
		if !ok || rec.State != StateDone {
			t.Fatalf("recovered job %d: ok=%v state %s", id, ok, rec.State)
		}
		if !bytes.Equal(rec.Report(), report) {
			t.Errorf("recovered report %d differs from pre-crash bytes", id)
		}
		if !bytes.Equal(rec.Report(), want[rec.Job.Scenario]) {
			t.Errorf("recovered report %d differs from the uninterrupted run", id)
		}
		if rec.Resumed {
			t.Errorf("terminal job %d marked resumed", id)
		}
	}

	// Interrupted jobs resume — same planned backoff — and re-run to
	// the identical result.
	for _, orig := range append([]*Record{slow}, queued...) {
		final := waitDone(t, svc2, orig.ID)
		if final.State != StateDone {
			t.Fatalf("resumed job %d (%s): state %s (%s)", orig.ID, orig.Job.Scenario, final.State, final.Err)
		}
		if !final.Resumed {
			t.Errorf("job %d completed without the resumed mark", orig.ID)
		}
		if !bytes.Equal(final.Report(), want[orig.Job.Scenario]) {
			t.Errorf("resumed job %d report differs from the uninterrupted run", orig.ID)
		}
		if !reflect.DeepEqual(final.Backoff, plannedBackoff[orig.ID]) {
			t.Errorf("job %d recovered backoff %v, want the planned %v", orig.ID, final.Backoff, plannedBackoff[orig.ID])
		}
	}

	// The result cache survived: a recovered key resubmitted under a
	// different tenant is a cache hit with the original bytes.
	again, err := svc2.Submit(Job{Tenant: "other", Scenario: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || !bytes.Equal(again.Report(), want["a"]) {
		t.Errorf("resubmitted recovered key: cache_hit=%v, want a byte-identical cache hit", again.CacheHit)
	}
}

// TestFleetJournalTornTail crashes the service, corrupts the WAL's
// final frame the way a torn write would, and verifies recovery
// salvages the intact prefix: the undamaged job's report survives
// byte-identically, the job whose completion was torn off simply
// re-runs.
func TestFleetJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueDepth: 16, Journal: dir,
		Resolve: passResolve, Runner: deterministicRunner("", nil),
	}
	svc := mustNew(t, cfg)
	var ids []int64
	for _, name := range []string{"intact", "torn"} {
		rec, err := svc.Submit(Job{Tenant: "t", Scenario: name})
		if err != nil {
			t.Fatal(err)
		}
		final := waitDone(t, svc, rec.ID)
		if final.State != StateDone {
			t.Fatalf("%s: state %s", name, final.State)
		}
		ids = append(ids, rec.ID)
	}
	killMidFlight(t, svc, nil)

	// Tear the tail: the last WAL frame is "torn"'s completion.
	wal := filepath.Join(dir, "wal")
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	svc2 := mustNew(t, cfg)
	defer svc2.Close()
	st := svc2.Fleetz()
	if st.Journal == nil || st.Journal.Recovered.Salvage == "" {
		t.Fatalf("torn tail recovered without a salvage note: %+v", st.Journal)
	}
	if got := st.Journal.Recovered; got.Done != 1 || got.Queued != 1 {
		t.Errorf("recovered %+v, want 1 done and 1 requeued", got)
	}
	if rec, ok := svc2.Get(ids[0]); !ok || rec.State != StateDone || !bytes.Equal(rec.Report(), []byte("report:intact\n")) {
		t.Errorf("intact job did not survive the torn tail: ok=%v %+v", ok, rec)
	}
	// The torn job re-runs deterministically to the same bytes.
	final := waitDone(t, svc2, ids[1])
	if final.State != StateDone || !final.Resumed || !bytes.Equal(final.Report(), []byte("report:torn\n")) {
		t.Errorf("torn job: state %s resumed %v, want a resumed byte-identical re-run", final.State, final.Resumed)
	}
}

// TestFleetJournalCompaction keeps the log bounded: with a small
// snapshot threshold the WAL compacts during load, and a restart
// replays full state from the compact image.
func TestFleetJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 2, QueueDepth: 32, Journal: dir, SnapshotEvery: 4,
		Resolve: passResolve, Runner: deterministicRunner("", nil),
	}
	svc := mustNew(t, cfg)
	const jobs = 10
	for i := 0; i < jobs; i++ {
		rec, err := svc.Submit(Job{Tenant: "t", Scenario: fmt.Sprintf("job-%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if final := waitDone(t, svc, rec.ID); final.State != StateDone {
			t.Fatalf("job %d: state %s", i, final.State)
		}
	}
	st := svc.Fleetz()
	if st.Journal == nil || st.Journal.Stats.Compactions < 1 {
		t.Fatalf("no compaction after %d jobs at SnapshotEvery=4: %+v", jobs, st.Journal)
	}
	if st.Journal.Stats.WALRecords > 2*4 {
		t.Errorf("WAL holds %d records after compaction, want bounded near the threshold", st.Journal.Stats.WALRecords)
	}
	svc.Close()

	svc2 := mustNew(t, cfg)
	defer svc2.Close()
	if got := svc2.Fleetz().Journal.Recovered.Done; got != jobs {
		t.Errorf("restart recovered %d done jobs, want %d", got, jobs)
	}
	if recs := svc2.Jobs("done"); len(recs) != jobs {
		t.Errorf("restart lists %d done records, want %d", len(recs), jobs)
	}
}

// TestFleetJournalLimitsPersist proves runtime tenant contracts
// survive a crash: a limit installed via SetTenantLimit throttles
// again after kill-and-restart.
func TestFleetJournalLimitsPersist(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Workers: 1, QueueDepth: 16, Journal: dir,
		Resolve: passResolve, Runner: deterministicRunner("", nil),
	}
	svc := mustNew(t, cfg)
	if err := svc.SetTenantLimit("metered", TenantLimit{Rate: 0.0001, Burst: 1, Weight: 3}); err != nil {
		t.Fatal(err)
	}
	killMidFlight(t, svc, nil)

	svc2 := mustNew(t, cfg)
	defer svc2.Close()
	st := svc2.Fleetz()
	if len(st.Limits) != 1 || st.Limits[0].Tenant != "metered" ||
		st.Limits[0].Rate != 0.0001 || st.Limits[0].Burst != 1 || st.Limits[0].Weight != 3 {
		t.Fatalf("recovered limits %+v, want metered 0.0001:1:3", st.Limits)
	}
	if _, err := svc2.Submit(Job{Tenant: "metered", Scenario: "s0"}); err != nil {
		t.Fatalf("first metered job after restart: %v", err)
	}
	if _, err := svc2.Submit(Job{Tenant: "metered", Scenario: "s1"}); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("second metered job after restart: %v, want the recovered limit to throttle", err)
	}
}

// TestFleetJournalCloseKeepsQueue pins the graceful-shutdown contract:
// a journaled Close leaves queued jobs in the log (unlike the plain
// service, which fails them), and the next incarnation runs them.
func TestFleetJournalCloseKeepsQueue(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := Config{
		Workers: 1, QueueDepth: 16, Journal: dir,
		Resolve: passResolve, Runner: deterministicRunner("slow", gate),
	}
	svc := mustNew(t, cfg)
	blocker, err := svc.Submit(Job{Tenant: "t", Scenario: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, blocker.ID, StateRunning)
	parked, err := svc.Submit(Job{Tenant: "t", Scenario: "parked"})
	if err != nil {
		t.Fatal(err)
	}
	restartService(t, svc, gate, false) // the in-flight blocker finishes inside Close

	svc2 := mustNew(t, cfg)
	defer svc2.Close()
	if got := svc2.Fleetz().Journal.Recovered; got.Queued != 1 || got.Done != 1 {
		t.Errorf("recovered %+v, want the parked job queued and the blocker done", got)
	}
	final := waitDone(t, svc2, parked.ID)
	if final.State != StateDone || !final.Resumed || !bytes.Equal(final.Report(), []byte("report:parked\n")) {
		t.Errorf("parked job after graceful restart: state %s resumed %v", final.State, final.Resumed)
	}
}

// TestApplyWALDamagedDone covers the replay hash check directly: a
// completion entry whose report bytes fail their content hash is
// dropped, leaving the job queued to re-run.
func TestApplyWALDamagedDone(t *testing.T) {
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, Resolve: passResolve,
		Runner: deterministicRunner("", nil),
	})
	defer svc.Close()

	job := Job{Tenant: "t", Scenario: "x", Duration: time.Second}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if !svc.applyLocked(walEntry{Op: opAdmit, ID: 7, Key: "k", Tenant: "t", Job: &job}) {
		t.Fatal("admit entry rejected")
	}
	damaged := walEntry{Op: opDone, ID: 7, Report: []byte("tampered"), Hash: reportHash([]byte("original"))}
	if svc.applyLocked(damaged) {
		t.Error("completion with a mismatched content hash was accepted")
	}
	if rec := svc.records[7]; rec == nil || rec.State != StateQueued {
		t.Errorf("damaged completion left job in %v, want queued for re-run", svc.records[7])
	}
	good := walEntry{Op: opDone, ID: 7, Report: []byte("original"), Hash: reportHash([]byte("original")), E2E: 1}
	if !svc.applyLocked(good) {
		t.Error("intact completion rejected")
	}
	if rec := svc.records[7]; rec.State != StateDone || !bytes.Equal(rec.report, []byte("original")) {
		t.Errorf("intact completion not applied: %+v", svc.records[7])
	}
}

// waitState polls until job id reaches st.
func waitState(t *testing.T, svc *Service, id int64, st JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, ok := svc.Get(id)
		if ok && rec.State == st {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d never reached %s (now %s)", id, st, rec.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// recordViews renders records with every field a restart must keep:
// the exported fields, the report bytes and the admission time.
func recordViews(t *testing.T, recs []Record) []string {
	t.Helper()
	out := make([]string, len(recs))
	for i, r := range recs {
		b, err := json.Marshal(struct {
			Record
			Report []byte
			Enq    int64
		}{r, r.Report(), r.enqueued.UnixNano()})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// replayedStatus is the part of /fleetz a restart must reproduce: all
// of it but the journal's own stats and the captured-panic count, which
// belong to the process. Without the door tallies it also drops the
// refusal counters, which only snapshots carry.
func replayedStatus(st Status, doors bool) Status {
	st.Journal = nil
	st.PoolPanics = 0
	if !doors {
		st.Fleet.Rejected, st.Fleet.Throttled = 0, 0
		for i := range st.Tenants {
			st.Tenants[i].Rejected, st.Tenants[i].Throttled = 0, 0
		}
	}
	return st
}

// submit admits a job or fails the test.
func submit(t *testing.T, svc *Service, job Job) *Record {
	t.Helper()
	rec, err := svc.Submit(job)
	if err != nil {
		t.Fatalf("submit %s/%s: %v", job.Tenant, job.Scenario, err)
	}
	return rec
}

// runSession drives the scripted session on svc, whose runner holds
// jobs named "hold" until gate closes, and waits for every job to end.
// One worker and two tenants run a plain job, a job that crashes once
// then completes, one that crashes until it is dead-lettered, one that
// fails on its deadline, a best-effort job the ladder sheds, a cache
// hit and a throttled refusal under the second tenant, and a tenant
// limit.
func runSession(t *testing.T, svc *Service, gate chan struct{}) {
	t.Helper()
	if err := svc.SetTenantLimit("beta", TenantLimit{Rate: 0.001, Burst: 1, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, job := range []Job{
		{Tenant: "alpha", Priority: 1, Scenario: "plain"},
		{Tenant: "alpha", Priority: 1, Scenario: "flaky", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 1}},
		{Tenant: "alpha", Priority: 1, Scenario: "doomed", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 99}},
		{Tenant: "alpha", Priority: 1, Scenario: "late", Deadline: 20 * time.Millisecond,
			Chaos: &Chaos{Kind: faults.KindStall, Attempts: 99}},
	} {
		rec := submit(t, svc, job)
		waitDone(t, svc, rec.ID)
		byName[job.Scenario] = rec.ID
	}
	// Three queued behind a running job reach the shed mark, and
	// the ladder evicts the best-effort one.
	hold := submit(t, svc, Job{Tenant: "alpha", Priority: 1, Scenario: "hold"})
	waitState(t, svc, hold.ID, StateRunning)
	for _, job := range []Job{
		{Tenant: "alpha", Priority: 0, Scenario: "cheap"},
		{Tenant: "alpha", Priority: 1, Scenario: "q1"},
		{Tenant: "alpha", Priority: 1, Scenario: "q2"},
	} {
		byName[job.Scenario] = submit(t, svc, job).ID
	}
	close(gate)
	for _, id := range byName {
		waitDone(t, svc, id)
	}
	waitDone(t, svc, hold.ID)
	hit := submit(t, svc, Job{Tenant: "beta", Priority: 1, Scenario: "plain"})
	b1 := submit(t, svc, Job{Tenant: "beta", Priority: 1, Scenario: "b1"})
	if _, err := svc.Submit(Job{Tenant: "beta", Priority: 1, Scenario: "b2"}); !errors.Is(err, ErrTenantThrottled) {
		t.Fatalf("second beta job: %v, want throttled", err)
	}
	waitDone(t, svc, b1.ID)

	for name, want := range map[string]JobState{
		"plain": StateDone, "flaky": StateDone, "doomed": StateFailed,
		"late": StateFailed, "cheap": StateShed, "q1": StateDone,
	} {
		if rec, _ := svc.Get(byName[name]); rec.State != want {
			t.Fatalf("%s: state %s (%s), want %s", name, rec.State, rec.Err, want)
		}
	}
	if rec, _ := svc.Get(byName["flaky"]); len(rec.Attempts) != 2 || rec.Retries != 1 {
		t.Fatalf("flaky: %d attempts %d retries, want 2 and 1", len(rec.Attempts), rec.Retries)
	}
	if rec, _ := svc.Get(byName["doomed"]); !rec.DeadLetter || len(rec.Attempts) != 3 {
		t.Fatalf("doomed: dead letter %v after %d attempts, want a dead letter after 3", rec.DeadLetter, len(rec.Attempts))
	}
	if rec, _ := svc.Get(hit.ID); !rec.CacheHit {
		t.Fatal("beta's plain job missed the cache")
	}
}

// TestFleetJournalReplayMatchesLive is the restart contract: a service
// rebuilt from its journal holds exactly the records and /fleetz the
// live service held after runSession. The session runs on a service
// that itself resumed jobs from an earlier restart, so their records,
// Resumed included, must also survive a second one. The restart is taken both
// after Close, from the snapshot, and after a kill, from the raw WAL.
func TestFleetJournalReplayMatchesLive(t *testing.T) {
	for _, mode := range []string{"close", "kill"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := Config{
				Workers: 1, QueueDepth: 4, RetryBudget: 2, RetryBase: time.Millisecond,
				AllowChaos: true, Journal: dir, Resolve: passResolve,
			}
			kill := mode == "kill"
			// The first incarnation leaves a job in flight and one queued.
			gate1 := make(chan struct{})
			cfg.Runner = deterministicRunner("slow", gate1)
			svc1 := mustNew(t, cfg)
			slow := submit(t, svc1, Job{Tenant: "alpha", Priority: 1, Scenario: "slow"})
			waitState(t, svc1, slow.ID, StateRunning)
			parked := submit(t, svc1, Job{Tenant: "alpha", Priority: 1, Scenario: "parked"})
			restartService(t, svc1, gate1, kill)

			// The second incarnation resumes them, then runs the session.
			gate2 := make(chan struct{})
			cfg.Runner = deterministicRunner("hold", gate2)
			svc2 := mustNew(t, cfg)
			for _, id := range []int64{slow.ID, parked.ID} {
				waitDone(t, svc2, id)
			}
			runSession(t, svc2, gate2)
			live := svc2.Jobs("")
			liveStatus := svc2.Fleetz()
			if liveStatus.Fleet.Throttled != 1 || len(liveStatus.DeadLetters) != 1 || len(liveStatus.Limits) != 1 {
				t.Fatalf("live status %+v: want one throttled refusal, one dead letter and one limit", liveStatus)
			}
			restartService(t, svc2, nil, kill)

			svc3 := mustNew(t, cfg)
			defer svc3.Close()
			got := svc3.Jobs("")
			want, have := recordViews(t, live), recordViews(t, got)
			if len(have) != len(want) {
				t.Fatalf("restart holds %d records, live held %d", len(have), len(want))
			}
			for i := range want {
				if have[i] != want[i] {
					t.Errorf("record %d after restart:\n got %s\nwant %s", live[i].ID, have[i], want[i])
				}
			}
			resumed := []int64{parked.ID}
			if kill {
				resumed = append(resumed, slow.ID)
			}
			for _, id := range resumed {
				if rec, _ := svc3.Get(id); !rec.Resumed || rec.State != StateDone {
					t.Errorf("resumed job %d after the second restart: state %s resumed %v, want done and resumed", id, rec.State, rec.Resumed)
				}
			}
			doors := !kill
			if g, w := replayedStatus(svc3.Fleetz(), doors), replayedStatus(liveStatus, doors); !reflect.DeepEqual(g, w) {
				t.Errorf("fleetz after restart:\n got %+v\nwant %+v", g, w)
			}
		})
	}
}

// TestFleetJournalRefusesOldSnapshot pins the snapshot format break: a
// snapshot in the shape journals had before snapshots became entry
// lists (a mirrored schema object) makes New fail, rather than load as
// empty or partial state.
func TestFleetJournalRefusesOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := `{"next_id":1,"next_seq":1,"records":[{"id":1,"seq":1,` +
		`"job":{"tenant":"t","scenario":"a","duration":8000000000},"key":"k","state":"done",` +
		`"tenant":"t","attempts":[{"outcome":"ok","wall_ms":1}],"report":"b2sK","enq":1}],` +
		`"tenants":{"t":{"submitted":1,"completed":1,"failed":0,"retries":0,"shed":0,` +
		`"rejected":0,"cache_hits":0,"throttled":0,"e2e":[7],"wall":[1]}}}`
	if err := l.Compact([]byte(old)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Workers: 1, Journal: dir, Resolve: passResolve, Runner: deterministicRunner("", nil)})
	if err == nil {
		n := len(svc.Jobs(""))
		svc.Close()
		t.Fatalf("New loaded an old-format snapshot (%d records), want an error", n)
	}
	if !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("New error %q does not name the snapshot", err)
	}
}

// TestFleetJournalFailureAnswers503: once a journal operation fails the
// log stops, and the service refuses new work it cannot make durable —
// POST /jobs and POST /tenants/{tenant}/limit answer 503 — while the
// failure shows in /fleetz.
func TestFleetJournalFailureAnswers503(t *testing.T) {
	dir := t.TempDir()
	svc := mustNew(t, Config{
		Workers: 1, QueueDepth: 4, Journal: dir, SnapshotEvery: 1,
		Resolve: passResolve, Runner: deterministicRunner("", nil),
	})
	defer svc.Close()
	// A directory where the snapshot belongs makes the next
	// compaction's rename fail, which stops the log.
	snap := filepath.Join(dir, "snapshot")
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snap, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	rec := submit(t, svc, Job{Tenant: "t", Scenario: "a"})
	if final := waitDone(t, svc, rec.ID); final.State != StateDone {
		t.Fatalf("job before the failure: state %s", final.State)
	}
	if errs := svc.Fleetz().Journal.Errors; errs < 1 {
		t.Fatalf("journal errors %d after a failed compaction, want >= 1", errs)
	}
	// Nothing was written for it, so the refusal is definite, not
	// "outcome unknown".
	if _, err := svc.Submit(Job{Tenant: "t", Scenario: "b"}); !errors.Is(err, ErrJournal) || !strings.Contains(err.Error(), "not journaled") {
		t.Fatalf("submit on a stopped journal: %v, want ErrJournal refusing it as not journaled", err)
	}

	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()
	for path, body := range map[string]string{
		"/jobs":            `{"tenant":"t","scenario":"c"}`,
		"/tenants/t/limit": `{"rate":1}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s on a stopped journal: status %d, want 503", path, resp.StatusCode)
		}
	}
	if n := len(svc.Jobs("")); n != 1 {
		t.Errorf("%d records after refused submissions, want 1", n)
	}
}

// TestFleetJournalRetryBudgetLowered restarts a journal written under
// RetryBudget 2 with a lower budget — one retry, and none — from the
// snapshot after Close and from the raw WAL after a kill. New must
// succeed and keep every record as it was, but for the backoff
// schedule, which the new budget recomputes; a job resumed past the
// new budget is dead-lettered after one more failed attempt; and the
// state survives a further restart under the lower budget, whose own
// snapshot holds retries that budget no longer plans.
func TestFleetJournalRetryBudgetLowered(t *testing.T) {
	for _, budget := range []int{1, -1} {
		for _, mode := range []string{"close", "kill"} {
			t.Run(fmt.Sprintf("budget%d/%s", budget, mode), func(t *testing.T) {
				kill := mode == "kill"
				gate := make(chan struct{})
				cfg := Config{
					Workers: 1, QueueDepth: 4, RetryBudget: 2, RetryBase: time.Millisecond,
					AllowChaos: true, Journal: t.TempDir(), Resolve: passResolve,
					Runner: deterministicRunner("pinned", gate),
				}
				svc1 := mustNew(t, cfg)
				var ended []int64
				for _, job := range []Job{
					{Tenant: "t", Scenario: "flaky", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 2}},
					{Tenant: "t", Scenario: "doomed", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 99}},
				} {
					rec := submit(t, svc1, job)
					waitDone(t, svc1, rec.ID)
					ended = append(ended, rec.ID)
				}
				// pinned crashes twice, then its third attempt holds the
				// worker until the restart.
				pinned := submit(t, svc1, Job{Tenant: "t", Scenario: "pinned", Chaos: &Chaos{Kind: faults.KindCrash, Attempts: 2}})
				deadline := time.Now().Add(30 * time.Second)
				for rec, _ := svc1.Get(pinned.ID); rec.Retries < 2; rec, _ = svc1.Get(pinned.ID) {
					if time.Now().After(deadline) {
						t.Fatalf("pinned job never reached its third attempt: %d retries", rec.Retries)
					}
					time.Sleep(time.Millisecond)
				}
				live := svc1.Jobs("")[:len(ended)]
				restartService(t, svc1, gate, kill)

				// Under the lower budget a resumed attempt times out.
				cfg.RetryBudget = budget
				cfg.Runner = runnerFunc(func(ctx context.Context, spec scenario.Spec, det autoware.Detector, d time.Duration) (*RunResult, error) {
					return nil, context.DeadlineExceeded
				})
				svc2 := mustNew(t, cfg)
				wantBackoff := max(budget, 0)
				for i, id := range ended {
					rec, _ := svc2.Get(id)
					if !slices.Equal(rec.Backoff, live[i].Backoff[:wantBackoff]) {
						t.Errorf("job %d backoff %v after the restart, want the first %d of %v", id, rec.Backoff, wantBackoff, live[i].Backoff)
					}
					rec.Backoff = live[i].Backoff
					if got, want := recordViews(t, []Record{rec}), recordViews(t, live[i:i+1]); got[0] != want[0] {
						t.Errorf("job %d after the restart:\n got %s\nwant %s", id, got[0], want[0])
					}
				}
				final := waitDone(t, svc2, pinned.ID)
				outcomes := make([]string, len(final.Attempts))
				for i, a := range final.Attempts {
					outcomes[i] = a.Outcome
				}
				wantOutcomes, wantState := "crash crash ok", StateDone
				if kill {
					wantOutcomes, wantState = "crash crash timeout", StateFailed
				}
				if got := strings.Join(outcomes, " "); got != wantOutcomes || final.State != wantState ||
					final.Retries != 2 || final.DeadLetter != kill || final.Resumed != kill {
					t.Errorf("pinned job: %s after attempts [%s], %d retries, dead letter %v, resumed %v; want %s after [%s], 2 retries, dead letter and resumed %v",
						final.State, got, final.Retries, final.DeadLetter, final.Resumed, wantState, wantOutcomes, kill)
				}
				before := recordViews(t, svc2.Jobs(""))
				svc2.Close()

				svc3 := mustNew(t, cfg)
				defer svc3.Close()
				if after := recordViews(t, svc3.Jobs("")); !reflect.DeepEqual(after, before) {
					t.Errorf("second restart under the lower budget:\n got %s\nwant %s", after, before)
				}
			})
		}
	}
}

// TestFleetJournalStartCompactionFailure: every restart compacts the
// replayed journal, and a journal that cannot compact would refuse
// every submission, so New fails instead of starting on it — here a
// directory in the way of the snapshot's temp file fails the create.
func TestFleetJournalStartCompactionFailure(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, Journal: dir, Resolve: passResolve, Runner: deterministicRunner("", nil)}
	svc := mustNew(t, cfg)
	rec := submit(t, svc, Job{Tenant: "t", Scenario: "a"})
	waitDone(t, svc, rec.ID)
	svc.Close()
	if err := os.MkdirAll(filepath.Join(dir, "snapshot.tmp", "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	if svc, err := New(cfg); err == nil {
		svc.Close()
		t.Fatal("New started on a journal that cannot compact")
	} else if !strings.Contains(err.Error(), "compacting") {
		t.Errorf("New error %q does not name the compaction", err)
	}
	// Nothing was lost: with the obstacle gone the job is back.
	if err := os.RemoveAll(filepath.Join(dir, "snapshot.tmp")); err != nil {
		t.Fatal(err)
	}
	svc2 := mustNew(t, cfg)
	defer svc2.Close()
	if got, ok := svc2.Get(rec.ID); !ok || got.State != StateDone {
		t.Errorf("job %d after the obstacle was removed: ok=%v state %s, want done", rec.ID, ok, got.State)
	}
}
