package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/testenv"
	"repro/internal/trace"
)

// runScenario executes a named scenario over the shared test fixtures.
func runScenario(t *testing.T, name string, duration time.Duration) *Result {
	t.Helper()
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithEnv(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, duration)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestContentionReproducesF1 is the chaos-suite rendering of the
// paper's Finding 1: injected co-located CPU work must inflate a
// node's p99 latency relative to the fault-free baseline — and the
// whole report must be byte-identical across two runs with the same
// seed and schedule.
func TestContentionReproducesF1(t *testing.T) {
	const duration = 12 * time.Second
	a := runScenario(t, NameContention, duration)

	// F1 shape: tail inflation on the CPU-heavy nodes.
	inflated := 0
	for _, node := range []string{"ndt_matching", "voxel_grid_filter", "ray_ground_filter"} {
		ns, ok := a.NodeStat(node)
		if !ok {
			t.Fatalf("no stats for %s", node)
		}
		if ns.Baseline.Count == 0 || ns.Faulted.Count == 0 {
			t.Fatalf("%s has empty distributions: %+v", node, ns)
		}
		if ns.Faulted.P99 > ns.Baseline.P99 {
			inflated++
		}
		t.Logf("%s: baseline p99=%.2fms faulted p99=%.2fms", node, ns.Baseline.P99, ns.Faulted.P99)
	}
	if inflated == 0 {
		t.Error("contention inflated no node's p99 over its fault-free baseline")
	}
	if ns, _ := a.NodeStat("ndt_matching"); !(ns.Faulted.P99 > ns.Baseline.P99) {
		t.Errorf("ndt_matching p99 not inflated: baseline=%.3f faulted=%.3f",
			ns.Baseline.P99, ns.Faulted.P99)
	}

	// Determinism: an identical second run renders the identical report.
	b := runScenario(t, NameContention, duration)
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("same seed + schedule produced different chaos reports")
	}
	if !strings.Contains(ra.String(), "contention") {
		t.Error("report does not mention the scenario")
	}
}

// TestCameraStallDegradesAndRecovers pins the graceful-degradation
// loop: a stalled detector triggers the last-good fallback (visible as
// a degraded interval with substitutions in the trace report), and the
// stack returns to normal output within a bounded window after the
// fault clears.
func TestCameraStallDegradesAndRecovers(t *testing.T) {
	const duration = 10 * time.Second
	res := runScenario(t, NameCameraStall, duration)

	if len(res.Degraded) == 0 {
		t.Fatal("stalled detector produced no degraded interval")
	}
	// A 900 ms stall against a 400 ms staleness timeout lets output
	// trickle through at ~1 Hz, so the watchdog may cycle through
	// several degrade/recover intervals across the window; every one
	// must name the watched node and policy, and every one must close.
	spec := res.Spec
	faultStart, faultEnd := spec.Faults[0].Start, spec.Faults[0].End()
	substituted := 0
	for _, d := range res.Degraded {
		if d.Node != autoware.VisionNodeName || d.Policy != "last-good" {
			t.Errorf("degraded interval = %+v", d)
		}
		if d.Start < faultStart {
			t.Errorf("degradation %v began before the fault window %v", d.Start, faultStart)
		}
		if d.End == 0 {
			t.Errorf("interval starting %v never recovered after the fault cleared", d.Start)
		}
		substituted += d.Substituted
		t.Logf("degraded [%v, %v), %d frames substituted", d.Start, d.End, d.Substituted)
	}
	if substituted == 0 {
		t.Error("watchdog recorded no last-good substitutions while degraded")
	}
	// Bounded recovery: the last stalled callback can finish up to one
	// stall (900 ms) past the window, plus one camera frame (~101 ms)
	// and one watchdog period (100 ms) before the check observes fresh
	// output — well under 2 s (< 20 camera frames).
	last := res.Degraded[len(res.Degraded)-1]
	if last.End > faultEnd+2*time.Second {
		t.Errorf("final recovery at %v, more than 2s after the fault cleared at %v", last.End, faultEnd)
	}

	// Downstream stayed fed: fusion kept producing during the run.
	if ns, ok := res.NodeStat("range_vision_fusion"); !ok || ns.Faulted.Count == 0 {
		t.Error("fusion produced nothing on the faulted run despite last-good substitution")
	}

	// The tuner's scheduler-off candidate 0 is this faulted leg, watchdog
	// included: it must score exactly the worst path the report shows.
	got, err := evalCandidate(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, duration, nil, sched.Candidate{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	var want sched.Eval
	for _, ps := range res.Paths {
		f := ps.Faulted
		want.Samples += f.Count
		if f.Count > 0 && (want.Path == "" || f.P99 > want.P99 || f.P99 == want.P99 && ps.Path < want.Path) {
			want.Path, want.P50, want.P99 = ps.Path, f.Median, f.P99
		}
	}
	if got != want {
		t.Errorf("tuner candidate 0 = %s p99 %.2f ms over %d samples, faulted leg = %s p99 %.2f ms over %d",
			got.Path, got.P99, got.Samples, want.Path, want.P99, want.Samples)
	}
}

func TestQueueBurstForcesDrops(t *testing.T) {
	res := runScenario(t, NameQueueBurst, 10*time.Second)
	var burstDrops uint64
	for _, d := range res.Drops {
		if d.Topic == "/points_raw" {
			burstDrops += d.Dropped
		}
	}
	if burstDrops == 0 {
		t.Errorf("queue burst forced no /points_raw evictions: %+v", res.Drops)
	}
}

// TestCrashRecoverBoundedRecovery pins the supervision loop: a crashed
// tracker is detected from its first missed dispatch, restarted with
// backoff until the fault clears, and restored from its last state
// checkpoint — all within a bounded window — and the whole report is
// byte-identical across two runs with the same seed.
func TestCrashRecoverBoundedRecovery(t *testing.T) {
	const duration = 12 * time.Second
	a := runScenario(t, NameCrashRecover, duration)

	if len(a.Outages) != 1 {
		t.Fatalf("outages = %+v, want exactly 1", a.Outages)
	}
	o := a.Outages[0]
	fault := a.Spec.Faults[0]
	if o.Node != autoware.TrackerNodeName || o.Cause != "crash" {
		t.Errorf("outage = %+v", o)
	}
	// Detection on the first tracker dispatch inside the window (fused
	// detections arrive at ~10 Hz).
	if o.Detected < fault.Start || o.Detected > fault.Start+500*time.Millisecond {
		t.Errorf("detected at %v, want within 500ms of %v", o.Detected, fault.Start)
	}
	// Bounded recovery: the final backoff is at most BackoffMax plus
	// jitter (2.5 s), plus one dispatch — well under 3 s past the fault.
	if o.Recovered <= fault.End() || o.Recovered > fault.End()+3*time.Second {
		t.Errorf("recovered at %v, want within 3s after the fault cleared at %v", o.Recovered, fault.End())
	}
	if o.Restarts < 1 {
		t.Errorf("restarts = %d, want >= 1", o.Restarts)
	}
	// The tracker's input runs ~10 Hz; everything dispatched while down
	// is lost, bounded by the outage span.
	if o.FramesLost <= 0 || o.FramesLost > 60 {
		t.Errorf("frames lost = %d, want a bounded positive count", o.FramesLost)
	}
	if !o.Restored || o.CheckpointAge <= 0 {
		t.Errorf("restored=%t age=%v, want restoration from a prior checkpoint", o.Restored, o.CheckpointAge)
	}
	if !o.Recheckpointed {
		t.Error("recovery did not re-checkpoint the restored state")
	}

	// Satellite: the injector's crash verdicts are recorded as fault
	// losses, distinct from frames the supervisor consumed while down.
	foundCrashLoss := false
	for _, l := range a.Losses {
		if l.Kind == "crash" && l.Target == autoware.TrackerNodeName && l.Count > 0 {
			foundCrashLoss = true
			if l.First < fault.Start || l.Last >= fault.End() {
				t.Errorf("loss window [%v, %v] outside the fault window", l.First, l.Last)
			}
		}
	}
	if !foundCrashLoss {
		t.Errorf("no crash loss recorded: %+v", a.Losses)
	}

	// The tracker kept producing after recovery.
	if ns, ok := a.NodeStat(autoware.TrackerNodeName); !ok || ns.Faulted.Count == 0 {
		t.Error("tracker has no faulted samples despite recovery")
	}

	// Determinism: an identical second run renders the identical report.
	b := runScenario(t, NameCrashRecover, duration)
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("same seed + schedule produced different crash-recover reports")
	}
	if !strings.Contains(ra.String(), "supervised outages") {
		t.Error("report has no supervised-outages section")
	}
}

// TestOverloadShedBoundsTail pins deadline-aware load shedding: under
// the same queue-burst flood (same seed, same fault), the shedding run
// must not worsen the worst path's p99 end-to-end latency, and the
// shed counts must be reported.
func TestOverloadShedBoundsTail(t *testing.T) {
	const duration = 10 * time.Second
	shed := runScenario(t, NameOverloadShed, duration)
	unshed := runScenario(t, NameQueueBurst, duration)

	var totalShed uint64
	for _, ts := range shed.Topics {
		totalShed += ts.Shed
	}
	if totalShed == 0 {
		t.Fatalf("overload-shed shed no frames: %+v", shed.Topics)
	}
	for _, ts := range unshed.Topics {
		if ts.Shed != 0 {
			t.Errorf("queue-burst shed frames without a budget: %+v", ts)
		}
	}

	worstP99 := func(r *Result) (string, float64) {
		name, worst := "", 0.0
		for _, ps := range r.Paths {
			if ps.Faulted.P99 > worst {
				name, worst = ps.Path, ps.Faulted.P99
			}
		}
		return name, worst
	}
	shedPath, shedP99 := worstP99(shed)
	unshedPath, unshedP99 := worstP99(unshed)
	t.Logf("worst faulted path p99: shed %s=%.2fms vs unshed %s=%.2fms (%d frames shed)",
		shedPath, shedP99, unshedPath, unshedP99, totalShed)
	if shedP99 > unshedP99 {
		t.Errorf("shedding worsened the worst path p99: %.2fms > %.2fms", shedP99, unshedP99)
	}

	// The report surfaces the shed counts.
	var buf bytes.Buffer
	shed.WriteReport(&buf)
	if !strings.Contains(buf.String(), "deadline-shed frames") || strings.Contains(buf.String(), "deadline-shed frames (faulted run):\n  (none)") {
		t.Error("report has no deadline-shed section with counts")
	}
}

// TestCameraStallFaultLifecycle pins the watchdog × injector
// interaction across the whole fault lifecycle: degradation starts
// inside the fault window, every interval closes, substitution stops
// once the fault clears, and the detector's real output resumes.
func TestCameraStallFaultLifecycle(t *testing.T) {
	const duration = 12 * time.Second
	res := runScenario(t, NameCameraStall, duration)
	fault := res.Spec.Faults[0]

	if len(res.Degraded) == 0 {
		t.Fatal("no degraded intervals recorded")
	}
	for _, d := range res.Degraded {
		if d.Start < fault.Start {
			t.Errorf("interval opened at %v, before the fault at %v", d.Start, fault.Start)
		}
		if d.Start > fault.End()+2*time.Second {
			t.Errorf("interval opened at %v, after the fault cleared at %v", d.Start, fault.End())
		}
		if d.End == 0 {
			t.Errorf("interval opened at %v never closed", d.Start)
		}
		// Substitution happens only while degraded: intervals past the
		// fault window (catching the last stalled callbacks) are brief.
		if d.Start > fault.End() && d.End-d.Start > 2*time.Second {
			t.Errorf("post-fault interval [%v, %v) too long", d.Start, d.End)
		}
	}
	// Substitutions happened during the fault, and stopped afterwards:
	// the final interval closes within the bounded recovery window.
	total := 0
	for _, d := range res.Degraded {
		total += d.Substituted
	}
	if total == 0 {
		t.Error("no last-good substitutions recorded")
	}
	last := res.Degraded[len(res.Degraded)-1]
	if last.End > fault.End()+2*time.Second {
		t.Errorf("substitution continued past %v (fault cleared %v)", last.End, fault.End())
	}

	// Real detector output resumed after recovery: the faulted run kept
	// publishing fresh vision detections well past the fault window.
	for _, ts := range res.Topics {
		if ts.Topic == visionObjectsTopic {
			if ts.Last < fault.End()+time.Second {
				t.Errorf("vision output last published %v, fault cleared %v", ts.Last, fault.End())
			}
			return
		}
	}
	t.Errorf("no topic stats for %s", visionObjectsTopic)
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := ByName("no-such-chaos"); err == nil {
		t.Error("unknown scenario should error")
	}
	for _, n := range Names() {
		if _, err := ByName(n); err != nil {
			t.Errorf("built-in %q not resolvable: %v", n, err)
		}
	}
}

func TestRunRejectsShortDuration(t *testing.T) {
	spec, err := ByName(NameContention)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithEnv(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, time.Second); err == nil {
		t.Error("duration shorter than the fault horizon should error")
	}
}

// integrityFor returns the aggregated quarantine record for one
// (topic, cause) pair, zero-valued when absent.
func integrityFor(res *Result, topic, cause string) trace.IntegrityEvent {
	for _, ev := range res.Integrity {
		if ev.Topic == topic && ev.Cause == cause {
			return ev
		}
	}
	return trace.IntegrityEvent{}
}

// eventCount sums the injector's applied-perturbation counters for one
// (kind, target) pair.
func eventCount(res *Result, kind faults.Kind, target string) int {
	n := 0
	for _, ev := range res.Events {
		if ev.Kind == kind && ev.Target == target {
			n += ev.Count
		}
	}
	return n
}

// TestCorruptLidarQuarantined pins the tentpole end to end: bit-flipped
// LiDAR frames cross the bus, the guard quarantines every one at
// ingress before it reaches a subscriber queue, the rejections surface
// in the trace and topic stats, no node ever sees a NaN — and the whole
// report is byte-identical across two runs with the same seed.
func TestCorruptLidarQuarantined(t *testing.T) {
	const duration = 12 * time.Second
	a := runScenario(t, NameCorruptLidar, duration)
	fault := a.Spec.Faults[0]

	corrupted := eventCount(a, faults.KindCorrupt, "/points_raw")
	if corrupted == 0 {
		t.Fatalf("injector corrupted nothing: %+v", a.Events)
	}
	// Every corrupted frame — no more, no fewer — was quarantined as
	// malformed at the ingress point, inside the fault window.
	ev := integrityFor(a, "/points_raw", guard.CauseMalformed)
	if ev.Count != corrupted {
		t.Errorf("quarantined %d frames, injector corrupted %d: %+v", ev.Count, corrupted, a.Integrity)
	}
	if ev.Point != guard.PointIngress {
		t.Errorf("detection point = %q, want %q", ev.Point, guard.PointIngress)
	}
	if ev.First < fault.Start || ev.Last > fault.End()+time.Second {
		t.Errorf("quarantine window [%v, %v] outside the fault window [%v, %v]",
			ev.First, ev.Last, fault.Start, fault.End())
	}
	// The bus accounting agrees: quarantined frames never became
	// deliveries.
	for _, ts := range a.Topics {
		if ts.Topic == "/points_raw" && ts.Quarantined != uint64(corrupted) {
			t.Errorf("topic stats quarantined = %d, want %d", ts.Quarantined, corrupted)
		}
	}
	// Downstream perception kept running on the surviving clean frames.
	for _, node := range []string{"voxel_grid_filter", "ray_ground_filter", "ndt_matching"} {
		if ns, ok := a.NodeStat(node); !ok || ns.Faulted.Count == 0 {
			t.Errorf("%s produced nothing under corruption", node)
		}
	}

	// Determinism: an identical second run renders the identical report.
	b := runScenario(t, NameCorruptLidar, duration)
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("same seed + schedule produced different corrupt-lidar reports")
	}
	if !strings.Contains(ra.String(), "integrity quarantine") ||
		!strings.Contains(ra.String(), guard.CauseMalformed) {
		t.Error("report has no integrity quarantine section")
	}
}

// TestClockSkewSanitized pins time sanitization: LiDAR stamps rewound
// 400 ms and camera stamps run 400 ms ahead are both rejected against
// the guard's per-topic clock model, with cause attribution matching
// the direction of the skew.
func TestClockSkewSanitized(t *testing.T) {
	const duration = 12 * time.Second
	a := runScenario(t, NameClockSkew, duration)

	lidarSkews := eventCount(a, faults.KindSkew, "/points_raw")
	camSkews := eventCount(a, faults.KindSkew, "/image_raw")
	if lidarSkews == 0 || camSkews == 0 {
		t.Fatalf("injector skewed nothing: %+v", a.Events)
	}
	// A stamp rewound 400 ms is either a rewind past the 150 ms
	// holdback or a literal collision with a remembered stamp. Nearly
	// every skewed LiDAR frame must be caught — the only legitimate
	// escape is a run of consecutive skews long enough that the topic's
	// high-water mark goes stale and a rewound stamp lands inside the
	// holdback, where the guard deliberately admits it as a tolerated
	// straggler (the reorder buffer doing its job).
	lidarQ := integrityFor(a, "/points_raw", guard.CauseStampRewind).Count +
		integrityFor(a, "/points_raw", guard.CauseDuplicate).Count
	if lidarQ > lidarSkews || lidarQ < lidarSkews-3 {
		t.Errorf("lidar: quarantined %d of %d skewed frames: %+v", lidarQ, lidarSkews, a.Integrity)
	}
	// A stamp 400 ms in the future can only be a future-stamp.
	camQ := integrityFor(a, "/image_raw", guard.CauseFutureStamp)
	if camQ.Count != camSkews {
		t.Errorf("camera: future-stamp quarantined %d, skewed %d: %+v", camQ.Count, camSkews, a.Integrity)
	}

	// Determinism.
	b := runScenario(t, NameClockSkew, duration)
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("same seed + schedule produced different clock-skew reports")
	}
}

// TestDupStormQuarantined pins duplicate suppression: a driver
// delivering every LiDAR frame three times gets exactly the two extra
// copies of each frame quarantined — queues see each stamp once.
func TestDupStormQuarantined(t *testing.T) {
	const duration = 10 * time.Second
	a := runScenario(t, NameDupStorm, duration)

	copies := eventCount(a, faults.KindDup, "/points_raw")
	if copies == 0 {
		t.Fatalf("injector duplicated nothing: %+v", a.Events)
	}
	dupQ := integrityFor(a, "/points_raw", guard.CauseDuplicate)
	if dupQ.Count != copies {
		t.Errorf("quarantined %d duplicates, injector made %d copies: %+v",
			dupQ.Count, copies, a.Integrity)
	}
	// Exactly one of each triplet was delivered: the faulted run's
	// /points_raw message count matches the baseline cadence (~10 Hz
	// over the drive), not 3x it.
	for _, ts := range a.Topics {
		if ts.Topic == "/points_raw" {
			if perSec := float64(ts.Messages) / duration.Seconds(); perSec > 12 {
				t.Errorf("duplicates leaked into delivery: %.1f msgs/s on /points_raw", perSec)
			}
		}
	}

	// Determinism.
	b := runScenario(t, NameDupStorm, duration)
	var ra, rb bytes.Buffer
	a.WriteReport(&ra)
	b.WriteReport(&rb)
	if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
		t.Error("same seed + schedule produced different dup-storm reports")
	}
}

// TestGuardCleanRunByteIdentical is the guard's do-no-harm contract:
// over a clean drive the guarded stack produces byte-for-byte the same
// latency samples, topic traffic and drop tables as an unguarded one —
// the guard draws no randomness, schedules no events, quarantines
// nothing.
func TestGuardCleanRunByteIdentical(t *testing.T) {
	const duration = 8 * time.Second
	build := func(guarded bool) *autoware.Stack {
		t.Helper()
		cfg := autoware.DefaultConfig(autoware.DetectorSSD300)
		cfg.Guard = guarded
		s, err := autoware.BuildWithMap(cfg, testenv.Scenario(), testenv.Map())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	off := build(false)
	off.Run(duration)
	on := build(true)
	on.Run(duration)

	if on.Guard == nil {
		t.Fatal("guarded stack has no guard attached")
	}
	if q := on.Guard.Quarantined(); q != 0 {
		t.Fatalf("guard quarantined %d frames of a clean drive: %+v", q, on.Guard.Counts())
	}
	if on.Guard.Accepted() == 0 {
		t.Fatal("guard inspected nothing — not attached to the ingress path")
	}
	if evs := on.Recorder.IntegrityEvents(); len(evs) != 0 {
		t.Fatalf("clean run recorded integrity events: %+v", evs)
	}

	if !reflect.DeepEqual(off.Recorder.NodeNames(), on.Recorder.NodeNames()) {
		t.Fatalf("node sets differ: %v vs %v", off.Recorder.NodeNames(), on.Recorder.NodeNames())
	}
	for _, n := range off.Recorder.NodeNames() {
		if !reflect.DeepEqual(off.Recorder.NodeSamples(n), on.Recorder.NodeSamples(n)) {
			t.Errorf("node %s latency samples differ between guard-off and guard-on", n)
		}
	}
	for _, p := range off.Recorder.PathNames() {
		if !reflect.DeepEqual(off.Recorder.PathSamples(p), on.Recorder.PathSamples(p)) {
			t.Errorf("path %s latency samples differ between guard-off and guard-on", p)
		}
	}
	if !reflect.DeepEqual(off.Bus.TopicStats(), on.Bus.TopicStats()) {
		t.Error("topic stats differ between guard-off and guard-on")
	}
	if !reflect.DeepEqual(off.Bus.DropReports(), on.Bus.DropReports()) {
		t.Error("drop reports differ between guard-off and guard-on")
	}

	// The guard rides the ingress path and borrows each envelope during
	// inspection; it must never retain one. Both stacks' pool ledgers
	// have to close identically at the cutoff.
	for _, s := range []*autoware.Stack{off, on} {
		ps := s.Bus.PoolStats()
		queued := int64(s.Bus.QueuedMessages())
		held := ps.LiveRefs - queued
		if max := int64(len(s.Executor.NodeNames())) + 2; held < 0 || held > max {
			t.Errorf("pool out of balance: %d live refs, %d queued (held %d, allowed 0..%d)",
				ps.LiveRefs, queued, held, max)
		}
	}
	offPS, onPS := off.Bus.PoolStats(), on.Bus.PoolStats()
	if offPS.Acquired != onPS.Acquired || offPS.Live != onPS.Live || offPS.LiveRefs != onPS.LiveRefs {
		t.Errorf("pool stats differ between guard-off %+v and guard-on %+v", offPS, onPS)
	}
}
