package faults

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/work"
)

// echoNode turns each input into one output after fixed CPU work.
type echoNode struct {
	name    string
	in, out string
	ops     float64
	depth   int
	count   int
}

func (n *echoNode) Name() string { return n.name }
func (n *echoNode) Subscribes() []ros.SubSpec {
	d := n.depth
	if d == 0 {
		d = 2
	}
	return []ros.SubSpec{{Topic: n.in, Depth: d}}
}
func (n *echoNode) Process(in *ros.Message, _ time.Duration) ros.Result {
	n.count++
	return ros.Result{
		Outputs: []ros.Output{{Topic: n.out, Payload: in.Payload}},
		Work:    work.Work{IntOps: n.ops},
	}
}

// rig is a minimal one-node pipeline under an injector.
type rig struct {
	sim  *platform.Sim
	ex   *platform.Executor
	bus  *ros.Bus
	node *echoNode
	inj  *Injector
}

// newRig publishes to /in every 10 ms for the given span; the node does
// ~1 ms of work per input.
func newRig(t *testing.T, sched Schedule, depth int) *rig {
	t.Helper()
	sim := platform.NewSim()
	cpu := platform.NewCPU(platform.DefaultCPUConfig(), sim)
	gpu := platform.NewGPU(platform.DefaultGPUConfig(), sim)
	bus := ros.NewBus()
	ex := platform.NewExecutor(sim, cpu, gpu, bus, nil)
	node := &echoNode{name: "n", in: "/in", out: "/out", ops: 1.55e6, depth: depth}
	ex.AddNode(node, platform.NodeOptions{})
	inj, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(ex)
	return &rig{sim: sim, ex: ex, bus: bus, node: node, inj: inj}
}

// onDone runs fn on every completed callback.
func onDone(ex *platform.Executor, fn func(platform.DoneInfo)) {
	ex.Observe(func(ev platform.Event) {
		if ev.Kind == platform.Done {
			fn(ev.Done)
		}
	})
}

func (r *rig) pump(n int, period time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		r.sim.Schedule(time.Duration(i)*period, func() { r.ex.Publish("/in", i) })
	}
}

func window(start, dur time.Duration) (time.Duration, time.Duration) { return start, dur }

func TestDropFaultSuppressesMessages(t *testing.T) {
	start, dur := window(0, time.Second)
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindDrop, Topic: "/in", Start: start, Duration: dur, Prob: 1.0,
	}}}, 0)
	r.pump(50, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)
	if r.node.count != 0 {
		t.Errorf("p=1 drop window let %d messages through", r.node.count)
	}
	// 50 drops 10 ms apart: the event's window spans the first and the
	// last of them.
	want := Event{Kind: KindDrop, Target: "/in", Count: 50, First: 0, Last: 490 * time.Millisecond}
	if evs := r.inj.Events(); len(evs) != 1 || evs[0] != want {
		t.Errorf("events = %+v, want [%+v]", evs, want)
	}
}

// TestInjectorLossAggregation: the injector is the one tally of frames
// lost to drop and crash faults. Each (kind, target) gets one event
// with its count and the window between its first and last loss, and
// events are ordered by kind then target, so the crash comes first.
func TestInjectorLossAggregation(t *testing.T) {
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{
		{Kind: KindDrop, Topic: "/in", Start: 300 * time.Millisecond, Duration: time.Second, Prob: 1.0},
		{Kind: KindCrash, Node: "n", Start: 0, Duration: 200 * time.Millisecond},
	}}, 0)
	r.pump(50, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)
	evs := r.inj.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %+v, want a crash and a drop", evs)
	}
	// A drop is decided at publication, a crash at dispatch, which trails
	// publication by the same transport delay for every input.
	delay := evs[0].First
	if delay <= 0 || delay >= time.Millisecond {
		t.Fatalf("crash window opens %v after the first input, want a transport delay", delay)
	}
	want := []Event{
		{Kind: KindCrash, Target: "n", Count: 20, First: delay, Last: 190*time.Millisecond + delay},
		{Kind: KindDrop, Target: "/in", Count: 20, First: 300 * time.Millisecond, Last: 490 * time.Millisecond},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Errorf("events = %+v, want %+v", evs, want)
	}
	if r.node.count != 10 {
		t.Errorf("processed %d of 50, want the 10 between the windows", r.node.count)
	}
}

func TestDropFaultOutsideWindowIsInert(t *testing.T) {
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindDrop, Topic: "/in", Start: 10 * time.Second, Duration: time.Second, Prob: 1.0,
	}}}, 0)
	r.pump(20, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)
	if r.node.count != 20 {
		t.Errorf("inactive fault dropped messages: processed %d/20", r.node.count)
	}
	if len(r.inj.Events()) != 0 {
		t.Errorf("events = %+v", r.inj.Events())
	}
}

func TestDelayFaultShiftsCompletion(t *testing.T) {
	// One message, 100 ms fixed extra delay: output must land >= 100 ms
	// after the no-fault completion time.
	base := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindDelay, Topic: "/in", Start: 10 * time.Second, Duration: time.Second,
		Delay: 100 * time.Millisecond,
	}}}, 0) // window never active: baseline
	var baseDone time.Duration
	onDone(base.ex, func(d platform.DoneInfo) { baseDone = d.Finished })
	base.pump(1, time.Millisecond)
	base.sim.Run(time.Second)

	delayed := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindDelay, Topic: "/in", Start: 0, Duration: time.Second,
		Delay: 100 * time.Millisecond,
	}}}, 0)
	var faultDone time.Duration
	onDone(delayed.ex, func(d platform.DoneInfo) { faultDone = d.Finished })
	delayed.pump(1, time.Millisecond)
	delayed.sim.Run(time.Second)

	if faultDone-baseDone < 100*time.Millisecond {
		t.Errorf("delay fault added %v, want >= 100ms", faultDone-baseDone)
	}
}

func TestStallFaultHoldsNodeBusy(t *testing.T) {
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindStall, Node: "n", Start: 0, Duration: time.Second,
		Delay: 200 * time.Millisecond,
	}}}, 0)
	var first platform.DoneInfo
	onDone(r.ex, func(d platform.DoneInfo) {
		if first.Node == "" {
			first = d
		}
	})
	r.pump(1, time.Millisecond)
	r.sim.Run(time.Second)
	if lat := first.Finished - first.Arrived; lat < 200*time.Millisecond {
		t.Errorf("stalled callback latency %v, want >= 200ms", lat)
	}
	if r.node.count != 1 {
		t.Errorf("stall lost the message: count = %d", r.node.count)
	}
}

func TestCrashFaultConsumesInputsSilently(t *testing.T) {
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindCrash, Node: "n", Start: 0, Duration: 250 * time.Millisecond,
	}}}, 0)
	r.pump(50, 10*time.Millisecond)
	r.sim.Run(2 * time.Second)
	// ~25 inputs land in the crash window and are consumed unprocessed;
	// the rest process normally after recovery.
	if r.node.count < 20 || r.node.count > 30 {
		t.Errorf("processed %d of 50 with a 250ms crash window", r.node.count)
	}
	evs := r.inj.Events()
	if len(evs) != 1 || evs[0].Kind != KindCrash || evs[0].Count == 0 {
		t.Errorf("events = %+v", evs)
	}
}

// TestBurstCachesOnlyItsTopic: the burst pump keeps the newest payload
// of the topic it replays, not of every topic published while it runs.
func TestBurstCachesOnlyItsTopic(t *testing.T) {
	r := newRig(t, Schedule{Seed: 1, Faults: []Fault{{
		Kind: KindBurst, Topic: "/in", Start: 0, Duration: time.Second, Rate: 10,
	}}}, 0)
	r.ex.AddNode(&echoNode{name: "sink", in: "/out", out: "/sink", ops: 1.55e5}, platform.NodeOptions{})
	r.pump(5, 10*time.Millisecond)
	r.sim.Run(time.Second)
	if len(r.inj.lastPayload) != 1 || r.inj.lastPayload["/in"] != 4 {
		t.Errorf("burst cache = %v, want only /in's newest payload", r.inj.lastPayload)
	}
}

func TestBurstFaultForcesQueueEviction(t *testing.T) {
	// Slow node (50 ms/input, depth 1) under a 200 Hz burst republish:
	// the queue must evict.
	sched := Schedule{Seed: 7, Faults: []Fault{{
		Kind: KindBurst, Topic: "/in", Start: 100 * time.Millisecond,
		Duration: 500 * time.Millisecond, Rate: 200,
	}}}
	sim := platform.NewSim()
	cpu := platform.NewCPU(platform.DefaultCPUConfig(), sim)
	gpu := platform.NewGPU(platform.DefaultGPUConfig(), sim)
	bus := ros.NewBus()
	ex := platform.NewExecutor(sim, cpu, gpu, bus, nil)
	node := &echoNode{name: "n", in: "/in", out: "/out", ops: 7.75e7, depth: 1}
	ex.AddNode(node, platform.NodeOptions{})
	inj, err := New(sched)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(ex)
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(time.Duration(i)*50*time.Millisecond, func() { ex.Publish("/in", i) })
	}
	sim.Run(2 * time.Second)

	drops := bus.DropReports()
	if len(drops) != 1 || drops[0].Dropped == 0 {
		t.Errorf("burst produced no evictions: %+v", drops)
	}
	evs := inj.Events()
	if len(evs) != 1 || evs[0].Kind != KindBurst || evs[0].Count < 50 {
		t.Errorf("events = %+v", evs)
	}
}

func TestContentionFaultSlowsCallbacks(t *testing.T) {
	mk := func(withHogs bool) time.Duration {
		sched := Schedule{Seed: 3, Faults: []Fault{{
			Kind: KindContention, Start: 0, Duration: time.Second,
			Workers: 4, Load: 10e-3,
		}}}
		if !withHogs {
			sched.Faults[0].Start = 10 * time.Second // out of reach
		}
		r := newRig(t, sched, 0)
		r.node.ops = 1.55e7 // 10 ms of work per input
		var last time.Duration
		onDone(r.ex, func(d platform.DoneInfo) { last = d.Finished })
		r.pump(10, 50*time.Millisecond)
		r.sim.Run(5 * time.Second)
		return last
	}
	clean, contended := mk(false), mk(true)
	if contended <= clean {
		t.Errorf("contention did not slow pipeline: clean=%v contended=%v", clean, contended)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	run := func() (int, []Event) {
		r := newRig(t, Schedule{Seed: 42, Faults: []Fault{
			{Kind: KindDrop, Topic: "/in", Start: 0, Duration: time.Second, Prob: 0.5},
			{Kind: KindJitter, Topic: "/out", Start: 0, Duration: time.Second, Sigma: 5 * time.Millisecond},
		}}, 0)
		r.pump(100, 10*time.Millisecond)
		r.sim.Run(3 * time.Second)
		return r.node.count, r.inj.Events()
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 {
		t.Errorf("processed counts diverge: %d vs %d", c1, c2)
	}
	if len(e1) != len(e2) {
		t.Fatalf("event sets diverge: %+v vs %+v", e1, e2)
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Errorf("event %d diverges: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	// A different seed must perturb differently (0.5 drop over 100 msgs).
	r3 := newRig(t, Schedule{Seed: 43, Faults: []Fault{
		{Kind: KindDrop, Topic: "/in", Start: 0, Duration: time.Second, Prob: 0.5},
		{Kind: KindJitter, Topic: "/out", Start: 0, Duration: time.Second, Sigma: 5 * time.Millisecond},
	}}, 0)
	r3.pump(100, 10*time.Millisecond)
	r3.sim.Run(3 * time.Second)
	if r3.node.count == c1 {
		t.Logf("note: different seed produced same drop count %d (possible but unlikely)", c1)
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Seed: 1},
		{Seed: 1, Faults: []Fault{{Kind: KindDrop, Topic: "/t", Duration: time.Second}}},          // no prob
		{Seed: 1, Faults: []Fault{{Kind: KindDrop, Topic: "/t", Prob: 0.5}}},                      // no duration
		{Seed: 1, Faults: []Fault{{Kind: KindStall, Duration: time.Second, Delay: time.Second}}},  // no node
		{Seed: 1, Faults: []Fault{{Kind: "nope", Duration: time.Second}}},                         // unknown kind
		{Seed: 1, Faults: []Fault{{Kind: KindBurst, Topic: "/t", Duration: time.Second}}},         // no rate
		{Seed: 1, Faults: []Fault{{Kind: KindContention, Duration: time.Second, Workers: 1}}},     // no load
		{Seed: 1, Faults: []Fault{{Kind: KindDrop, Topic: "/t", Duration: time.Second, Prob: 2}}}, // p > 1
		{Seed: 1, Faults: []Fault{{Kind: KindJitter, Topic: "/t", Duration: time.Second}}},        // no sigma
		{Seed: 1, Faults: []Fault{{Kind: KindDelay, Topic: "/t", Duration: time.Second}}},         // no delay
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schedule %d should fail validation", i)
		}
	}
	good := Schedule{Seed: 1, Faults: []Fault{
		{Kind: KindCrash, Node: "n", Duration: time.Second},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}
