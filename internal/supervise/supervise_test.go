package supervise

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/trace"
	"repro/internal/work"
)

// statefulNode echoes /in to /out after ~1 ms of work, counting inputs.
// The counter is its checkpointed state; restores log what the counter
// was rolled back to. MuteAfter, when set, stops output publication
// (but not processing) past that time — the stale-output trigger.
type statefulNode struct {
	count     int
	muteAfter time.Duration
	restores  []int
}

type counterSnap struct{ count int }

func (n *statefulNode) Name() string { return "n" }
func (n *statefulNode) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: "/in", Depth: 2}}
}
func (n *statefulNode) Process(in *ros.Message, now time.Duration) ros.Result {
	n.count++
	if n.muteAfter > 0 && now >= n.muteAfter {
		return ros.Result{Work: work.Work{IntOps: 1.55e6}}
	}
	return ros.Result{
		Outputs: []ros.Output{{Topic: "/out", Payload: in.Payload}},
		Work:    work.Work{IntOps: 1.55e6},
	}
}

// sinkNode subscribes to /out so the bus actually delivers it (the
// supervisor's liveness tap observes deliveries, not publications).
type sinkNode struct{}

func (sinkNode) Name() string { return "sink" }
func (sinkNode) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: "/out", Depth: 2}}
}
func (sinkNode) Process(*ros.Message, time.Duration) ros.Result { return ros.Result{} }

func (n *statefulNode) Snapshot() any { return &counterSnap{count: n.count} }
func (n *statefulNode) Restore(snapshot any) {
	cp, ok := snapshot.(*counterSnap)
	if !ok || cp == nil {
		n.count = 0
		n.restores = append(n.restores, 0)
		return
	}
	n.count = cp.count
	n.restores = append(n.restores, cp.count)
}

// rig is a one-node pipeline with a manual crash window (standing in
// for the fault injector's filter chain) under a supervisor.
type rig struct {
	sim  *platform.Sim
	ex   *platform.Executor
	bus  *ros.Bus
	node *statefulNode
	rec  *trace.Recorder
	sup  *Supervisor
}

// newRig installs the crash window first and the supervisor second, so
// the supervisor's filter observes the crash verdicts — the same
// ordering the scenario harness uses with the real injector.
func newRig(t *testing.T, cfg Config, crashStart, crashEnd time.Duration) *rig {
	t.Helper()
	sim := platform.NewSim()
	cpu := platform.NewCPU(platform.DefaultCPUConfig(), sim)
	gpu := platform.NewGPU(platform.DefaultGPUConfig(), sim)
	bus := ros.NewBus()
	ex := platform.NewExecutor(sim, cpu, gpu, bus, nil)
	node := &statefulNode{}
	ex.AddNode(node, platform.NodeOptions{})
	ex.AddNode(sinkNode{}, platform.NodeOptions{})

	if crashEnd > crashStart {
		ex.CallbackFilter = func(_ string, _ *ros.Message, now time.Duration) platform.CallbackVerdict {
			if now >= crashStart && now < crashEnd {
				return platform.CallbackVerdict{Drop: true}
			}
			return platform.CallbackVerdict{}
		}
	}

	for i := range cfg.Policies {
		if cfg.Policies[i].Checkpoint != nil {
			cfg.Policies[i].Checkpoint = node
		}
	}
	sup, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(nil)
	sup.Attach(ex, rec)
	return &rig{sim: sim, ex: ex, bus: bus, node: node, rec: rec, sup: sup}
}

func (r *rig) pump(n int, period time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		r.sim.Schedule(time.Duration(i)*period, func() { r.ex.Publish("/in", i) })
	}
}

// checkpointed supervises the rig's node with checkpoints.
func checkpointed(seed uint64) Config {
	return Config{
		Seed: seed,
		Policies: []Policy{{
			Node:       "n",
			Checkpoint: &statefulNode{}, // replaced with the rig's node
		}},
	}
}

// inputPeriod is the spacing of the rig's /in frames.
const inputPeriod = 10 * time.Millisecond

// maxBackoff is the longest restart delay: the capped backoff plus its
// full jitter.
const maxBackoff = time.Duration(float64(backoffMax) * (1 + backoffJitter))

func TestCrashDetectRestartRestore(t *testing.T) {
	const crashStart, crashEnd = time.Second, 1800 * time.Millisecond
	// The last failed probe falls inside the window, and the restart
	// after it takes at most maxBackoff and then one input to confirm.
	const recoverBy = crashEnd + maxBackoff + 2*inputPeriod
	const horizon = recoverBy + time.Second
	r := newRig(t, checkpointed(7), crashStart, crashEnd)
	r.pump(int(horizon/inputPeriod), inputPeriod)
	r.sim.Run(horizon + time.Second)

	outs := r.rec.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want exactly 1", outs)
	}
	o := outs[0]
	if o.Node != "n" || o.Cause != CauseCrash {
		t.Errorf("outage = %+v", o)
	}
	// Detection on the first dispatch inside the window.
	if o.Detected < crashStart || o.Detected > crashStart+inputPeriod {
		t.Errorf("detected at %v, want within %v of %v", o.Detected, inputPeriod, crashStart)
	}
	if o.Recovered <= crashEnd || o.Recovered > recoverBy {
		t.Errorf("recovered at %v, want in (%v, %v]", o.Recovered, crashEnd, recoverBy)
	}
	if o.Restarts < 2 {
		t.Errorf("restarts = %d, want >= 2 (probes inside the window must fail)", o.Restarts)
	}
	// Every input inside the window is lost, and so is every input
	// during the final backoff before the post-window probe succeeds.
	minLost := int((crashEnd - crashStart) / inputPeriod)
	maxLost := int((recoverBy-crashStart)/inputPeriod) + 1
	if o.FramesLost < minLost || o.FramesLost > maxLost {
		t.Errorf("frames lost = %d, want %d-%d", o.FramesLost, minLost, maxLost)
	}
	if !o.Restored || o.CheckpointAge <= 0 {
		t.Errorf("restored=%t age=%v, want a restored checkpoint", o.Restored, o.CheckpointAge)
	}
	if !o.Recheckpointed {
		t.Error("recovery did not re-checkpoint the restored state")
	}

	// State loss semantics: every restore rolled the counter back to the
	// last pre-crash checkpoint, and the restored value never exceeds
	// the count at crash time.
	if len(r.node.restores) != o.Restarts {
		t.Errorf("restores = %v, want one per restart (%d)", r.node.restores, o.Restarts)
	}
	atCrash := int(crashStart / inputPeriod)
	for _, v := range r.node.restores {
		if v <= 0 || v > atCrash {
			t.Errorf("restored counter to %d, want a pre-crash checkpoint in (0, %d]", v, atCrash)
		}
	}
	if st := r.sup.states["n"]; st.phase != phaseHealthy {
		t.Errorf("node in phase %d after recovery, want healthy", st.phase)
	}

	// The pipeline kept flowing after recovery: total processed = all
	// inputs minus the lost frames, less the checkpoint rollback, and
	// the node processed every input after the restore.
	if want := int(horizon/inputPeriod) - o.FramesLost; r.node.count > want {
		t.Errorf("count = %d, want <= %d after checkpoint rollback", r.node.count, want)
	}
	last := r.node.restores[len(r.node.restores)-1]
	if after, want := r.node.count-last, int((horizon-o.Recovered)/inputPeriod); after < want {
		t.Errorf("processed %d inputs after the restore, want >= %d", after, want)
	}
}

func TestCrashBeforeFirstCheckpointIsColdRestart(t *testing.T) {
	// The crash window opens at 0: the node is declared down on its
	// first dispatch, before any checkpoint tick ran.
	r := newRig(t, checkpointed(7), 1*time.Millisecond, 300*time.Millisecond)
	r.pump(100, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)

	outs := r.rec.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want exactly 1", outs)
	}
	if outs[0].Restored {
		t.Errorf("outage = %+v, want a cold restart (no checkpoint existed)", outs[0])
	}
	if len(r.node.restores) == 0 || r.node.restores[0] != 0 {
		t.Errorf("restores = %v, want cold reset to 0", r.node.restores)
	}
}

// TestStaleOutputLivenessDetection mutes the node's output at 1 s while
// its callbacks keep running. The first outage opens one liveness
// timeout after the last output and closes on the restarted node's
// first callback. The node stays silent, so outages repeat, but each
// recovered node gets a full liveness timeout to publish and the
// restart backoff carries over from outage to outage, so one outage is
// open by 3 s and the gaps between outages grow.
func TestStaleOutputLivenessDetection(t *testing.T) {
	const muteAfter, horizon = time.Second, 10 * time.Second
	cfg := checkpointed(11)
	cfg.Policies[0].Topic = "/out"
	r := newRig(t, cfg, 0, 0) // no crash window
	r.node.muteAfter = muteAfter
	r.pump(int(horizon/inputPeriod), inputPeriod)
	r.sim.Run(horizon)

	outs := r.rec.Outages()
	if len(outs) == 0 {
		t.Fatal("mute node triggered no stale-output outage")
	}
	o := outs[0]
	// Staleness accrues from the last output, one input before the
	// mute: detection past the timeout, within one check period.
	lo, hi := muteAfter-inputPeriod+livenessTimeout, muteAfter+livenessTimeout+checkPeriod
	if o.Detected <= lo || o.Detected > hi {
		t.Errorf("detected at %v, want in (%v, %v]", o.Detected, lo, hi)
	}
	opened := 0
	for i, o := range outs {
		if o.Cause != CauseStaleOutput {
			t.Errorf("outage %d cause = %q, want %q", i, o.Cause, CauseStaleOutput)
		}
		// The restarted node still completes callbacks, so the probe
		// succeeds and the outage closes.
		if o.Recovered == 0 && i < len(outs)-1 {
			t.Errorf("outage %d never recovered: %+v", i, o)
		}
		if o.Detected <= 3*time.Second {
			opened++
		}
		if i == 0 {
			continue
		}
		if prev := outs[i-1]; o.Detected-prev.Recovered <= livenessTimeout {
			t.Errorf("outage %d opened at %v, %v after outage %d recovered; want more than the liveness timeout",
				i, o.Detected, o.Detected-prev.Recovered, i-1)
		}
		if i >= 2 && o.Detected-outs[i-1].Detected <= outs[i-1].Detected-outs[i-2].Detected {
			t.Errorf("outage %d opened %v after outage %d, no later than the gap before it (%v)",
				i, o.Detected-outs[i-1].Detected, i-1, outs[i-1].Detected-outs[i-2].Detected)
		}
	}
	if opened != 1 || len(outs) < 4 {
		t.Errorf("%d outages opened by 3 s and %d by %v, want 1 and at least 4: %+v", opened, len(outs), horizon, outs)
	}
}

func TestSupervisorDeterminism(t *testing.T) {
	run := func() ([]trace.Outage, int, []int) {
		r := newRig(t, checkpointed(42), time.Second, 1800*time.Millisecond)
		r.pump(300, 10*time.Millisecond)
		r.sim.Run(4 * time.Second)
		return r.rec.Outages(), r.node.count, r.node.restores
	}
	o1, c1, s1 := run()
	o2, c2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("outages diverge:\n%+v\n%+v", o1, o2)
	}
	if c1 != c2 || !reflect.DeepEqual(s1, s2) {
		t.Errorf("state diverges: count %d vs %d, restores %v vs %v", c1, c2, s1, s2)
	}

	// A different seed shifts the jittered restart timeline.
	r3 := newRig(t, checkpointed(43), time.Second, 1800*time.Millisecond)
	r3.pump(300, 10*time.Millisecond)
	r3.sim.Run(4 * time.Second)
	o3 := r3.rec.Outages()
	if len(o3) == 1 && len(o1) == 1 && o3[0].Recovered == o1[0].Recovered {
		t.Logf("note: different seed recovered at the identical instant %v (possible but unlikely)", o1[0].Recovered)
	}
}

func TestHealthyRunRecordsNothing(t *testing.T) {
	r := newRig(t, checkpointed(5), 0, 0)
	r.pump(100, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)
	if outs := r.rec.Outages(); len(outs) != 0 {
		t.Errorf("healthy run recorded outages: %+v", outs)
	}
	if r.node.count != 100 {
		t.Errorf("processed %d/100", r.node.count)
	}
	if len(r.node.restores) != 0 {
		t.Errorf("healthy run restored state: %v", r.node.restores)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Policies: []Policy{{Node: ""}}},
		{Policies: []Policy{{Node: "a"}, {Node: "a"}}},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	if _, err := New(Config{Policies: []Policy{{Node: "a"}}}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
