package platform

import (
	"math"
	"testing"
	"time"

	"repro/internal/msgs"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/work"
)

// pcNew builds a cloud of n zero points for payload-size tests.
func pcNew(n int) *pointcloud.Cloud {
	c := pointcloud.New(n)
	for i := 0; i < n; i++ {
		c.Append(pointcloud.Point{})
	}
	return c
}

func TestSimOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	// Equal times preserve scheduling order.
	s.Schedule(20*time.Millisecond, func() { got = append(got, 4) })
	n := s.Run(time.Second)
	if n != 4 {
		t.Fatalf("processed %d", n)
	}
	want := []int{1, 2, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	if s.Now() != time.Second {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSimHorizonStopsEarly(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Error("event did not fire on extended run")
	}
}

func TestSimScheduleInPastClamps(t *testing.T) {
	s := NewSim()
	s.Schedule(time.Second, func() {
		s.Schedule(0, func() {}) // in the past; must clamp, not hang
	})
	s.Run(2 * time.Second)
}

func TestCPUSingleTaskDuration(t *testing.T) {
	s := NewSim()
	c := NewCPU(DefaultCPUConfig(), s)
	var doneAt time.Duration
	c.Submit("a", 0.05, 0, func() { doneAt = s.Now() })
	s.Run(time.Second)
	if math.Abs(doneAt.Seconds()-0.05) > 1e-6 {
		t.Errorf("single task finished at %v", doneAt)
	}
	if math.Abs(c.BusyTotal()-0.05) > 1e-6 {
		t.Errorf("busy total = %v", c.BusyTotal())
	}
}

func TestCPUProcessorSharing(t *testing.T) {
	cfg := DefaultCPUConfig()
	cfg.Cores = 1
	s := NewSim()
	c := NewCPU(cfg, s)
	var aDone, bDone time.Duration
	// Two equal 100ms tasks on one core: both finish at ~200ms under PS.
	c.Submit("a", 0.1, 0, func() { aDone = s.Now() })
	c.Submit("b", 0.1, 0, func() { bDone = s.Now() })
	s.Run(time.Second)
	if math.Abs(aDone.Seconds()-0.2) > 1e-3 || math.Abs(bDone.Seconds()-0.2) > 1e-3 {
		t.Errorf("PS finish times: %v, %v (want ~200ms both)", aDone, bDone)
	}
}

func TestCPUNoContentionBelowCoreCount(t *testing.T) {
	cfg := DefaultCPUConfig()
	cfg.Cores = 4
	s := NewSim()
	c := NewCPU(cfg, s)
	var done [3]time.Duration
	for i := 0; i < 3; i++ {
		i := i
		c.Submit("n", 0.1, 0, func() { done[i] = s.Now() })
	}
	s.Run(time.Second)
	for i, d := range done {
		if math.Abs(d.Seconds()-0.1) > 1e-3 {
			t.Errorf("task %d finished at %v despite free cores", i, d)
		}
	}
}

func TestCPUMemoryBandwidthInterference(t *testing.T) {
	cfg := DefaultCPUConfig()
	cfg.Cores = 8
	cfg.MemBandwidth = 1e9
	s := NewSim()
	c := NewCPU(cfg, s)
	var aDone time.Duration
	// Two tasks each demanding the full socket bandwidth: both slow ~2x
	// even though cores are free.
	c.Submit("a", 0.1, 1e9, func() { aDone = s.Now() })
	c.Submit("b", 0.1, 1e9, func() {})
	s.Run(time.Second)
	if aDone.Seconds() < 0.19 {
		t.Errorf("bandwidth-bound task finished at %v, want ~0.2s", aDone)
	}
}

func TestCPUStaggeredArrival(t *testing.T) {
	cfg := DefaultCPUConfig()
	cfg.Cores = 1
	s := NewSim()
	c := NewCPU(cfg, s)
	var aDone time.Duration
	c.Submit("a", 0.1, 0, func() { aDone = s.Now() })
	// Second task arrives at 50ms; from then on, both progress at half
	// speed. a has 50ms left -> finishes at 150ms.
	s.Schedule(50*time.Millisecond, func() {
		c.Submit("b", 0.1, 0, func() {})
	})
	s.Run(time.Second)
	if math.Abs(aDone.Seconds()-0.15) > 2e-3 {
		t.Errorf("staggered PS: a done at %v, want ~150ms", aDone)
	}
}

func TestGPUFIFO(t *testing.T) {
	s := NewSim()
	g := NewGPU(DefaultGPUConfig(), s)
	k := work.GPUKernel{FMAs: 4.4e10, Efficiency: 1} // 10ms at peak
	d1 := g.Submit("a", []work.GPUKernel{k})
	d2 := g.Submit("b", []work.GPUKernel{k})
	if d2 <= d1 {
		t.Errorf("FIFO ordering: %v then %v", d1, d2)
	}
	// Second waits for first: roughly double.
	if math.Abs(d2.Seconds()-2*d1.Seconds()) > 1e-3 {
		t.Errorf("queueing: d1=%v d2=%v", d1, d2)
	}
	if g.QueueWait() <= 0 {
		t.Error("queue wait not recorded")
	}
}

func TestGPUKernelDurationRoofline(t *testing.T) {
	s := NewSim()
	g := NewGPU(DefaultGPUConfig(), s)
	computeBound := work.GPUKernel{FMAs: 4.4e10, Bytes: 1, Efficiency: 1}
	memBound := work.GPUKernel{FMAs: 1, Bytes: 3.2e10, Efficiency: 1}
	dc := g.KernelDuration(computeBound).Seconds()
	dm := g.KernelDuration(memBound).Seconds()
	if math.Abs(dc-0.01) > 1e-3 {
		t.Errorf("compute-bound duration = %v", dc)
	}
	if math.Abs(dm-0.1) > 1e-2 {
		t.Errorf("memory-bound duration = %v", dm)
	}
	// Low efficiency stretches duration.
	slow := work.GPUKernel{FMAs: 4.4e10, Efficiency: 0.1}
	if g.KernelDuration(slow).Seconds() < 9*dc {
		t.Error("efficiency scaling missing")
	}
}

func TestGPUEnergyAccounting(t *testing.T) {
	s := NewSim()
	g := NewGPU(DefaultGPUConfig(), s)
	g.Submit("a", []work.GPUKernel{{FMAs: 4.4e10, Efficiency: 1}})
	if g.DynEnergy() <= 0 {
		t.Error("no dynamic energy recorded")
	}
	if g.BusyByOwner()["a"] <= 0 {
		t.Error("owner busy accounting missing")
	}
}

// echoNode processes any input into one output after fixed work.
type echoNode struct {
	name    string
	in, out string
	ops     float64
	kernels []work.GPUKernel
	count   int
}

func (n *echoNode) Name() string { return n.name }
func (n *echoNode) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: n.in, Depth: 2}}
}
func (n *echoNode) Process(in *ros.Message, _ time.Duration) ros.Result {
	n.count++
	return ros.Result{
		Outputs: []ros.Output{{Topic: n.out, Payload: in.Payload}},
		Work:    work.Work{IntOps: n.ops, Kernels: n.kernels},
	}
}

// onDone runs fn on every completed callback.
func onDone(ex *Executor, fn func(DoneInfo)) {
	ex.Observe(func(ev Event) {
		if ev.Kind == Done {
			fn(ev.Done)
		}
	})
}

func newTestExecutor() (*Executor, *Sim) {
	sim := NewSim()
	cpu := NewCPU(DefaultCPUConfig(), sim)
	gpu := NewGPU(DefaultGPUConfig(), sim)
	bus := ros.NewBus()
	ex := NewExecutor(sim, cpu, gpu, bus, nil) // no jitter: deterministic timing tests
	return ex, sim
}

func TestExecutorPipelineLatency(t *testing.T) {
	ex, sim := newTestExecutor()
	a := &echoNode{name: "a", in: "/in", out: "/mid", ops: 1.55e7} // 10ms
	b := &echoNode{name: "b", in: "/mid", out: "/out", ops: 1.55e7}
	ex.AddNode(a, NodeOptions{})
	ex.AddNode(b, NodeOptions{})

	var done []DoneInfo
	onDone(ex, func(d DoneInfo) { done = append(done, d) })

	sim.Schedule(0, func() { ex.Publish("/in", "payload") })
	sim.Run(time.Second)

	if a.count != 1 || b.count != 1 {
		t.Fatalf("counts a=%d b=%d", a.count, b.count)
	}
	if len(done) != 2 {
		t.Fatalf("done callbacks = %d", len(done))
	}
	// Node a: ~10ms of work after ~40µs comm.
	la := (done[0].Finished - done[0].Arrived).Seconds()
	if math.Abs(la-0.010) > 1e-3 {
		t.Errorf("node a latency = %v", la)
	}
	// End of pipeline: ~20ms + 2 comm delays.
	lb := done[1].Finished.Seconds()
	if lb < 0.020 || lb > 0.023 {
		t.Errorf("pipeline finish = %v", lb)
	}
}

func TestExecutorLineagePropagates(t *testing.T) {
	ex, sim := newTestExecutor()
	a := &echoNode{name: "a", in: "/in", out: "/out", ops: 1e6}
	ex.AddNode(a, NodeOptions{})
	var lastOrigins []ros.Origin
	ex.Observe(func(ev Event) {
		if ev.Kind == Published && ev.Topic == "/out" {
			lastOrigins = ev.Origins
		}
	})
	sim.Schedule(0, func() { ex.Publish("/in", 1) })
	sim.Run(time.Second)
	if len(lastOrigins) != 1 || lastOrigins[0].Topic != "/in" {
		t.Fatalf("origins = %+v", lastOrigins)
	}
	if lastOrigins[0].Stamp != 0 {
		t.Errorf("origin stamp = %v", lastOrigins[0].Stamp)
	}
}

func TestExecutorQueueDropsUnderOverload(t *testing.T) {
	ex, sim := newTestExecutor()
	// Node takes 100ms per input; inputs arrive every 10ms; depth 2.
	slow := &echoNode{name: "slow", in: "/in", out: "/out", ops: 1.55e8}
	ex.AddNode(slow, NodeOptions{})
	for i := 0; i < 20; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		sim.Schedule(at, func() { ex.Publish("/in", 1) })
	}
	sim.Run(3 * time.Second)
	reports := ex.Bus.DropReports()
	if len(reports) != 1 {
		t.Fatalf("reports = %+v", reports)
	}
	if reports[0].Dropped == 0 {
		t.Error("overloaded queue should drop")
	}
	if slow.count >= 20 {
		t.Errorf("all messages processed despite overload: %d", slow.count)
	}
}

func TestExecutorContentionStretchesLatency(t *testing.T) {
	// One core: two nodes fed simultaneously must interfere.
	sim := NewSim()
	cfg := DefaultCPUConfig()
	cfg.Cores = 1
	cpu := NewCPU(cfg, sim)
	gpu := NewGPU(DefaultGPUConfig(), sim)
	ex := NewExecutor(sim, cpu, gpu, ros.NewBus(), nil)
	a := &echoNode{name: "a", in: "/ia", out: "/oa", ops: 1.55e7 * 5} // 50ms alone
	b := &echoNode{name: "b", in: "/ib", out: "/ob", ops: 1.55e7 * 5}
	ex.AddNode(a, NodeOptions{})
	ex.AddNode(b, NodeOptions{})
	var finishes []time.Duration
	onDone(ex, func(d DoneInfo) { finishes = append(finishes, d.Finished) })
	sim.Schedule(0, func() {
		ex.Publish("/ia", 1)
		ex.Publish("/ib", 1)
	})
	sim.Run(time.Second)
	if len(finishes) != 2 {
		t.Fatalf("finishes = %v", finishes)
	}
	last := finishes[1].Seconds()
	if last < 0.095 {
		t.Errorf("contended pair finished at %v, want ~100ms", last)
	}
}

func TestExecutorGPUPhaseSerializedAcrossNodes(t *testing.T) {
	ex, sim := newTestExecutor()
	k := work.GPUKernel{FMAs: 4.4e10 * 3, Efficiency: 1} // 30ms
	a := &echoNode{name: "a", in: "/ia", out: "/oa", ops: 1e6, kernels: []work.GPUKernel{k}}
	b := &echoNode{name: "b", in: "/ib", out: "/ob", ops: 1e6, kernels: []work.GPUKernel{k}}
	ex.AddNode(a, NodeOptions{})
	ex.AddNode(b, NodeOptions{})
	var finishes []time.Duration
	onDone(ex, func(d DoneInfo) { finishes = append(finishes, d.Finished) })
	sim.Schedule(0, func() {
		ex.Publish("/ia", 1)
		ex.Publish("/ib", 1)
	})
	sim.Run(time.Second)
	if len(finishes) != 2 {
		t.Fatalf("finishes = %v", finishes)
	}
	// Second node's kernels queue behind the first's: ~60ms.
	if finishes[1].Seconds() < 0.058 {
		t.Errorf("GPU queueing absent: second finish %v", finishes[1])
	}
}

func TestExecutorCostScale(t *testing.T) {
	ex, sim := newTestExecutor()
	a := &echoNode{name: "a", in: "/in", out: "/out", ops: 1.55e6} // 1ms at scale 1
	ex.AddNode(a, NodeOptions{CostScale: 10})
	var fin time.Duration
	onDone(ex, func(d DoneInfo) { fin = d.Finished })
	sim.Schedule(0, func() { ex.Publish("/in", 1) })
	sim.Run(time.Second)
	if fin.Seconds() < 0.010 {
		t.Errorf("cost scale ignored: finish %v", fin)
	}
}

func TestExecutorDuplicateNodePanics(t *testing.T) {
	ex, _ := newTestExecutor()
	ex.AddNode(&echoNode{name: "x", in: "/i", out: "/o"}, NodeOptions{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ex.AddNode(&echoNode{name: "x", in: "/i", out: "/o"}, NodeOptions{})
}

func TestJitterNonNegativeAndBounded(t *testing.T) {
	j := NewJitter(DefaultJitterConfig())
	base := 0.01
	var maxV float64
	for i := 0; i < 10000; i++ {
		v := j.Apply(base)
		if v < base {
			t.Fatalf("jitter shrank the task: %v < %v", v, base)
		}
		if v > maxV {
			maxV = v
		}
	}
	// Spikes must exist but stay sane.
	if maxV <= base*1.05 {
		t.Error("no spikes observed")
	}
	if maxV > base+1 {
		t.Errorf("spike too large: %v", maxV)
	}
	// Nil jitter passes through.
	var nilJ *Jitter
	if nilJ.Apply(0.5) != 0.5 {
		t.Error("nil jitter should be identity")
	}
}

// twoInputNode subscribes to two topics and records processing order.
type twoInputNode struct {
	order []string
}

func (n *twoInputNode) Name() string { return "two" }
func (n *twoInputNode) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: "/a", Depth: 4}, {Topic: "/b", Depth: 4}}
}
func (n *twoInputNode) Process(in *ros.Message, _ time.Duration) ros.Result {
	n.order = append(n.order, in.Topic)
	return ros.Result{Work: work.Work{IntOps: 1.55e6}} // 1ms
}

func TestExecutorProcessesOldestStampFirst(t *testing.T) {
	ex, sim := newTestExecutor()
	n := &twoInputNode{}
	ex.AddNode(n, NodeOptions{})
	// /b published first, then /a: while the node is busy with /b,
	// both queues fill; on completion the older (/a at 1ms) vs (/b at
	// 2ms) must drain in stamp order.
	sim.Schedule(0, func() { ex.Publish("/b", 1) })
	sim.Schedule(time.Millisecond, func() { ex.Publish("/a", 1) })
	sim.Schedule(2*time.Millisecond, func() { ex.Publish("/b", 1) })
	sim.Run(time.Second)
	want := []string{"/b", "/a", "/b"}
	if len(n.order) != 3 {
		t.Fatalf("order = %v", n.order)
	}
	for i := range want {
		if n.order[i] != want[i] {
			t.Fatalf("order = %v, want %v", n.order, want)
		}
	}
}

func TestExecutorCommDelayScalesWithPayload(t *testing.T) {
	small := commDelay("tiny")
	big := commDelay(&msgs.OccupancyGrid{Data: make([]int8, 1<<20)})
	if big <= small {
		t.Errorf("large payload should take longer: %v vs %v", big, small)
	}
	// 1 MiB at 8 GB/s is ~131 µs + fixed 40 µs.
	if big < 150*time.Microsecond || big > 250*time.Microsecond {
		t.Errorf("1 MiB delay = %v", big)
	}
}

func TestPayloadBytesCoversAllTypes(t *testing.T) {
	cases := []any{
		&msgs.PointCloud{Cloud: pcNew(10)},
		&msgs.DetectedObjectArray{Objects: make([]msgs.DetectedObject, 3)},
		&msgs.OccupancyGrid{Data: make([]int8, 100)},
		&msgs.LaneArray{Lanes: []msgs.Lane{{Waypoints: make([]msgs.Waypoint, 5)}}},
		"fallback",
	}
	for _, c := range cases {
		if payloadBytes(c) <= 0 {
			t.Errorf("payload bytes for %T = %v", c, payloadBytes(c))
		}
	}
}
