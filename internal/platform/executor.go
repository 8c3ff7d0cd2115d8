package platform

import (
	"fmt"
	"time"

	"repro/internal/msgs"
	"repro/internal/ros"
	"repro/internal/work"
)

// NodeOptions tune how the executor runs one node.
type NodeOptions struct {
	// CostScale multiplies the node's CPU work before conversion to
	// time. It calibrates each Go implementation's op counts to the
	// per-node costs of the C++/PCL/CUDA originals (see DESIGN.md);
	// per-frame *variation* still comes entirely from the real
	// scene-dependent work the node reports.
	CostScale float64
}

type nodeRuntime struct {
	node      ros.Node
	subs      []*ros.Subscription
	busy      bool
	costScale float64
}

// DoneInfo describes one completed node callback for observers.
type DoneInfo struct {
	Node string
	// Input is the message that triggered the callback (read-only).
	Input *ros.Message
	// Arrived is when the input reached the node's queue.
	Arrived time.Duration
	// Started is when the callback began executing.
	Started time.Duration
	// CPUDone is when the host phase finished.
	CPUDone time.Duration
	// Finished is when outputs were ready (after GPU phases).
	Finished time.Duration
	// Work is the callback's reported cost.
	Work work.Work
	// Outputs is how many messages the callback published.
	Outputs int
	// Published lists the topics the callback published on, in output
	// order — the forward half of lineage chaining: an output published
	// at Finished on Published[i] is the parent of whichever callback
	// later consumes it (see trace.ChainLog).
	Published []string
	// FusedInputs lists previously cached messages whose origins were
	// merged into the outputs' lineage (fusion's latest-input caches),
	// read-only like Input.
	FusedInputs []*ros.Message
}

// SchedPolicy is the decision surface of the deadline scheduler
// (internal/sched). When Executor.Sched is non-nil the FIFO
// registration-order dispatch is replaced by a global earliest-deadline
// pick with criticality tie-breaks; a nil policy keeps the seed
// dispatch byte-identical.
type SchedPolicy interface {
	// Priority returns the node's criticality (higher = more critical);
	// it breaks ties between candidates with equal deadlines.
	Priority(node string) float64
	// MaxInflight caps how many callbacks may be CPU-resident at once
	// (0 = uncapped). The cap applies at admission; a callback releases
	// its slot at the CPU/GPU pipeline boundary (the preemption point),
	// so a GPU-phase node does not hold back CPU work.
	MaxInflight() int
}

// Executor binds ROS nodes to the simulated platform: it pulls messages
// from subscription queues, charges each callback's Work to the CPU and
// GPU models, and publishes outputs with transport delay once the
// virtual execution completes.
type Executor struct {
	Sim    *Sim
	CPU    *CPU
	GPU    *GPU
	Bus    *ros.Bus
	Jitter *Jitter

	runtimes  map[string]*nodeRuntime
	order     []string // registration order for deterministic dispatch
	observers []func(Event)

	// OnDone observes completed callbacks after every Observe observer.
	// Its only user is cmd/bench; a later benchmark change moves it onto
	// Observe and deletes this field.
	OnDone func(DoneInfo)

	// PublishFilter, when set, adjudicates every publication before it
	// is delivered — the fault-injection point for message drops, extra
	// transport delay, sensor timing jitter, payload corruption, stamp
	// skew and frame duplication. It runs at the publish instant (before
	// the transport delay is scheduled) and sees the payload so
	// corruption faults can substitute a mutated copy.
	PublishFilter func(topic string, payload any, now time.Duration) PublishVerdict
	// IngressFilter, when set, adjudicates every arrival at the bus
	// boundary — after transport, before the message enters any
	// subscriber queue. It is the input-integrity guard point: a
	// quarantine verdict diverts the frame so it is never enqueued and
	// never dispatched (see internal/guard).
	IngressFilter func(topic string, stamp time.Duration, payload any, now time.Duration) IngressVerdict
	// CallbackFilter, when set, adjudicates every callback dispatch —
	// the fault-injection point for node stalls and crash windows. It
	// runs after the input message is dequeued.
	CallbackFilter func(node string, m *ros.Message, now time.Duration) CallbackVerdict

	// ShedBudget, when positive, enables deadline-aware load shedding:
	// at dispatch, a frame whose earliest sensor origin is already more
	// than the budget old is consumed without running the callback —
	// it could not meet the end-to-end deadline anyway, and processing
	// it would only drag the tail further (COLA-style shedding). Shed
	// counts surface per topic in the bus's TopicStats.
	ShedBudget time.Duration

	// Sched, when non-nil, enables the deadline scheduler: dispatch
	// picks the ready (node, message) candidate with the earliest
	// origin-stamp deadline across the whole graph, breaking ties by
	// the policy's criticality priorities and then registration order.
	// Nil keeps the seed FIFO registration-order dispatch, byte for
	// byte. See internal/sched.
	Sched SchedPolicy
	// inflight counts CPU-resident callbacks under the scheduler's
	// admission cap. A slot is taken when a callback's CPU phase is
	// submitted and released when that phase completes — the CPU/GPU
	// pipeline boundary — so GPU offload never blocks CPU admission.
	inflight int
}

// EventKind names what an Event reports.
type EventKind uint8

const (
	// Published reports one accepted publication: a frame (or one
	// duplicate copy) that passed the ingress filter and entered the
	// bus, whether or not any subscriber queue took it.
	Published EventKind = iota + 1
	// Quarantined reports a frame the ingress filter diverted.
	Quarantined
	// Done reports a completed node callback.
	Done
)

// Event is one entry of the executor's observer stream (see Observe).
type Event struct {
	Kind EventKind
	// Topic, Stamp (the frame's header stamp), Origins and Payload
	// describe a Published or Quarantined frame; all are read-only.
	// Payload is the delivered one, after any PublishFilter
	// substitution.
	Topic   string
	Stamp   time.Duration
	Origins []ros.Origin
	Payload any
	// Cause names why a Quarantined frame was rejected.
	Cause string
	// Done describes the callback of a Done event.
	Done DoneInfo
}

// Observe appends an observer to the executor's event stream. Every
// observer sees every event, synchronously and in registration order.
// Emitting an event allocates nothing.
func (e *Executor) Observe(fn func(Event)) {
	e.observers = append(e.observers, fn)
}

func (e *Executor) emit(ev Event) {
	for _, fn := range e.observers {
		fn(ev)
	}
}

// PublishVerdict is a fault-layer decision about one publication.
type PublishVerdict struct {
	// Drop suppresses the publication entirely: no subscriber sees it,
	// and only the filter counts it (the injector's drop events).
	Drop bool
	// Delay is extra transport delay added on top of the comm model.
	Delay time.Duration
	// Payload, when non-nil, replaces the published payload — the
	// corruption faults substitute a mutated copy here, never touching
	// the original (other subscribers and replay buffers may hold it).
	Payload any
	// StampSkew offsets the message stamp (and the matching self-origin
	// of sensor publications) — a corrupted sensor clock. Negative skew
	// rewinds the stamp.
	StampSkew time.Duration
	// Copies delivers this many extra identical frames (same stamp,
	// same payload) right after the original — a duplicating driver.
	Copies int
}

// IngressVerdict is an integrity-layer decision about one arrival.
type IngressVerdict struct {
	// Quarantine diverts the frame: the executor emits a Quarantined
	// event for it (trace.Recorder counts those) and never enqueues or
	// dispatches it.
	Quarantine bool
	// Cause names why the frame was rejected (see internal/guard).
	Cause string
}

// CallbackVerdict is a fault-layer decision about one callback dispatch.
type CallbackVerdict struct {
	// Drop consumes the input without running the callback — a crashed
	// (restarting) node losing the messages delivered while it is down.
	// The filter counts it: the injector in its crash events, the
	// supervisor in its outage record (Outage.FramesLost).
	Drop bool
	// Stall blocks the node for this long before the callback executes,
	// holding it busy without consuming CPU — a hung I/O or lock wait.
	Stall time.Duration
}

// NewExecutor assembles an executor over fresh platform components.
func NewExecutor(sim *Sim, cpu *CPU, gpu *GPU, bus *ros.Bus, jit *Jitter) *Executor {
	return &Executor{
		Sim: sim, CPU: cpu, GPU: gpu, Bus: bus, Jitter: jit,
		runtimes: make(map[string]*nodeRuntime),
	}
}

// AddNode registers a node and its subscriptions.
func (e *Executor) AddNode(n ros.Node, opts NodeOptions) {
	if _, dup := e.runtimes[n.Name()]; dup {
		panic(fmt.Sprintf("platform: duplicate node %q", n.Name()))
	}
	scale := opts.CostScale
	if scale <= 0 {
		scale = 1
	}
	rt := &nodeRuntime{node: n, costScale: scale}
	for _, spec := range n.Subscribes() {
		rt.subs = append(rt.subs, e.Bus.Subscribe(n.Name(), spec))
	}
	e.runtimes[n.Name()] = rt
	e.order = append(e.order, n.Name())
}

// Intra-host message transport: a fixed per-message cost plus the
// payload's bytes at commBandwidth bytes/second.
const (
	commLatency   = 40 * time.Microsecond
	commBandwidth = 8e9
)

// commDelay models message transport for a payload.
func commDelay(payload any) time.Duration {
	return commLatency + time.Duration(payloadBytes(payload)/commBandwidth*float64(time.Second))
}

// payloadBytes estimates the serialized size of a payload, for the
// transport-delay model.
func payloadBytes(payload any) float64 {
	switch p := payload.(type) {
	case *msgs.PointCloud:
		return float64(p.Cloud.Len())*26 + 64
	case *msgs.CameraImage:
		return float64(len(p.Frame.Image.Pix))*4 + 128
	case *msgs.DetectedObjectArray:
		n := 0
		for _, o := range p.Objects {
			n += 320 + 16*len(o.Hull) + 16*len(o.PredictedPath)
		}
		return float64(n) + 64
	case *msgs.OccupancyGrid:
		return float64(len(p.Data)) + 96
	case *msgs.LaneArray:
		n := 0
		for _, l := range p.Lanes {
			n += 48 + 32*len(l.Waypoints)
		}
		return float64(n) + 64
	default:
		return 256
	}
}

// Publish injects a message from outside the node graph (a sensor
// driver): it is stamped now, carries itself as origin, and reaches
// subscriber queues after the transport delay.
func (e *Executor) Publish(topic string, payload any) {
	stamp := e.Sim.Now()
	origins := []ros.Origin{{Topic: topic, Stamp: stamp}}
	e.deliver(topic, stamp, payload, origins)
}

// deliver performs the delayed enqueue + dispatch for one publication.
func (e *Executor) deliver(topic string, stamp time.Duration, payload any, origins []ros.Origin) {
	delay := commDelay(payload)
	copies := 0
	if e.PublishFilter != nil {
		v := e.PublishFilter(topic, payload, e.Sim.Now())
		if v.Drop {
			return
		}
		delay += v.Delay
		if v.Payload != nil {
			payload = v.Payload
		}
		if v.StampSkew != 0 {
			stamp += v.StampSkew
			origins = skewSelfOrigin(origins, topic, stamp)
		}
		copies = v.Copies
	}
	e.Sim.After(delay, func() {
		delivered := e.enqueue(topic, stamp, payload, origins)
		for i := 0; i < copies; i++ {
			if e.enqueue(topic, stamp, payload, origins) {
				delivered = true
			}
		}
		if delivered {
			e.dispatchSubscribers(topic)
		}
	})
}

// skewSelfOrigin rewrites the origin entry of the publication's own
// topic to the skewed stamp: a sensor whose clock skews stamps its
// lineage with the same bogus time, which is exactly the corruption the
// guard's time sanitization (and the trace layer's non-monotonic-origin
// clamping) must survive.
func skewSelfOrigin(origins []ros.Origin, topic string, stamp time.Duration) []ros.Origin {
	out := make([]ros.Origin, len(origins))
	copy(out, origins)
	for i := range out {
		if out[i].Topic == topic {
			out[i].Stamp = stamp
		}
	}
	return out
}

// enqueue runs the ingress integrity filter on an arrival and, on
// accept, publishes it into the subscriber queues. It reports whether
// the frame was delivered (false when quarantined). A quarantined frame
// never reaches a subscriber queue and takes no sequence number.
func (e *Executor) enqueue(topic string, stamp time.Duration, payload any, origins []ros.Origin) bool {
	if e.IngressFilter != nil {
		v := e.IngressFilter(topic, stamp, payload, e.Sim.Now())
		if v.Quarantine {
			e.emit(Event{Kind: Quarantined, Topic: topic, Stamp: stamp, Origins: origins, Payload: payload, Cause: v.Cause})
			return false
		}
	}
	e.Bus.Publish(topic, stamp, payload, origins)
	e.emit(Event{Kind: Published, Topic: topic, Stamp: stamp, Origins: origins, Payload: payload})
	return true
}

// dispatchSubscribers pokes every idle node subscribed to the topic.
func (e *Executor) dispatchSubscribers(topic string) {
	if e.Sched != nil {
		e.schedDispatch()
		return
	}
	for _, name := range e.order {
		rt := e.runtimes[name]
		for _, sub := range rt.subs {
			if sub.Topic == topic {
				e.tryDispatch(rt)
				break
			}
		}
	}
}

// deadlineOf returns a message's scheduling key: the oldest sensor
// origin stamp (every path shares the same end-to-end budget, so
// earliest origin = earliest absolute deadline). Messages without
// lineage fall back to their publish stamp.
func deadlineOf(m *ros.Message) time.Duration {
	if len(m.Header.Origins) == 0 {
		return m.Header.Stamp
	}
	oldest := m.Header.Origins[0].Stamp
	for _, o := range m.Header.Origins[1:] {
		if o.Stamp < oldest {
			oldest = o.Stamp
		}
	}
	return oldest
}

// schedDispatch runs the deadline scheduler's admission loop: while the
// inflight cap has room, pick the ready (node, message) candidate with
// the earliest deadline — criticality, then registration order, break
// ties — and start it. Shed and crash-drop verdicts consume the input
// without taking a slot, so the loop re-picks until a callback starts
// or no candidate remains. Every decision reads only virtual-time
// state, keeping dispatch order bit-identical across host worker counts.
func (e *Executor) schedDispatch() {
	for {
		if cap := e.Sched.MaxInflight(); cap > 0 && e.inflight >= cap {
			return
		}
		rt, sub := e.pickReady()
		if rt == nil {
			return
		}
		// Progress is guaranteed: every iteration either consumes the
		// picked message (run, shed, drop) or marks the node busy
		// (stall), and pickReady skips busy nodes.
		e.start(rt, sub.Queue.Pop())
	}
}

// pickReady scans idle nodes and returns the candidate with the
// earliest deadline. Ties fall to the higher-criticality node, then to
// registration order (the seed dispatch order), so the pick is total
// and deterministic.
func (e *Executor) pickReady() (*nodeRuntime, *ros.Subscription) {
	var bestRT *nodeRuntime
	var bestSub *ros.Subscription
	var bestDeadline time.Duration
	var bestPrio float64
	for _, name := range e.order {
		rt := e.runtimes[name]
		if rt.busy {
			continue
		}
		for _, sub := range rt.subs {
			m := sub.Queue.Peek()
			if m == nil {
				continue
			}
			d := deadlineOf(m)
			if bestRT == nil || d < bestDeadline {
				bestRT, bestSub, bestDeadline = rt, sub, d
				bestPrio = e.Sched.Priority(name)
				continue
			}
			if d == bestDeadline {
				if p := e.Sched.Priority(name); p > bestPrio {
					bestRT, bestSub, bestPrio = rt, sub, p
				}
			}
		}
	}
	return bestRT, bestSub
}

// tryDispatch starts the next callback on an idle node with input,
// taking the oldest message across the node's queues (by publish
// stamp). Shed and crash-drop verdicts leave the node idle, so it
// keeps taking inputs until a callback starts or its queues are empty.
func (e *Executor) tryDispatch(rt *nodeRuntime) {
	for !rt.busy {
		var bestSub *ros.Subscription
		for _, sub := range rt.subs {
			m := sub.Queue.Peek()
			if m == nil {
				continue
			}
			if bestSub == nil || m.Header.Stamp < bestSub.Queue.Peek().Header.Stamp {
				bestSub = sub
			}
		}
		if bestSub == nil {
			return
		}
		e.start(rt, bestSub.Queue.Pop())
	}
}

// start is the dispatch tail both dispatchers share, run on an input
// just popped for an idle node: the deadline shed check against
// ShedBudget, then the callback filter's crash-drop and stall
// verdicts, then the callback. Shed and crash-drop verdicts consume
// the input and leave the node idle; a stall marks the node busy until
// the callback runs.
func (e *Executor) start(rt *nodeRuntime, msg *ros.Message) {
	name := rt.node.Name()
	if e.ShedBudget > 0 && e.overBudget(msg) {
		e.Bus.RecordShed(msg.Topic)
		return
	}
	if e.CallbackFilter != nil {
		v := e.CallbackFilter(name, msg, e.Sim.Now())
		if v.Drop {
			return
		}
		if v.Stall > 0 {
			rt.busy = true
			e.Sim.After(v.Stall, func() { e.runCallback(rt, msg) })
			return
		}
	}
	rt.busy = true
	e.runCallback(rt, msg)
}

// overBudget reports whether a message's oldest sensor origin already
// exceeds ShedBudget. Messages without origin lineage are never shed.
func (e *Executor) overBudget(m *ros.Message) bool {
	now := e.Sim.Now()
	for _, o := range m.Header.Origins {
		if now-o.Stamp > e.ShedBudget {
			return true
		}
	}
	return false
}

// runCallback executes one callback on a node already marked busy.
func (e *Executor) runCallback(rt *nodeRuntime, msg *ros.Message) {
	started := e.Sim.Now()

	// The real computation happens now (node state mutates in dispatch
	// order, which is execution order); its virtual cost is charged to
	// the platform and outputs are withheld until the virtual finish.
	res := rt.node.Process(msg, started)

	cpuSeconds := e.CPU.SecondsFor(res.Work.CPUOps()) * rt.costScale
	if e.Jitter != nil {
		cpuSeconds = e.Jitter.Apply(cpuSeconds)
	}
	bwDemand := 0.0
	if cpuSeconds > 0 {
		bwDemand = res.Work.BytesTouched * rt.costScale / cpuSeconds
	}
	if e.Sched != nil {
		e.inflight++
	}
	e.CPU.Submit(rt.node.Name(), cpuSeconds, bwDemand, func() {
		cpuDone := e.Sim.Now()
		finish := cpuDone
		if len(res.Work.Kernels) > 0 {
			finish = e.GPU.Submit(rt.node.Name(), res.Work.Kernels)
		}
		e.Sim.Schedule(finish, func() {
			e.completeCallback(rt, msg, started, cpuDone, res)
		})
		if e.Sched != nil {
			// Preemption point: the CPU phase is over, so the admission
			// slot frees here even though the node stays busy through
			// its GPU phase — the next-most-urgent callback's CPU work
			// overlaps this node's offload.
			e.inflight--
			e.schedDispatch()
		}
	})
}

func (e *Executor) completeCallback(rt *nodeRuntime, msg *ros.Message, started, cpuDone time.Duration, res ros.Result) {
	now := e.Sim.Now()
	// Publish outputs with merged lineage.
	lineage := append([]*ros.Message{msg}, res.FusedInputs...)
	origins := ros.MergeOrigins(lineage...)
	for _, out := range res.Outputs {
		e.deliver(out.Topic, now, out.Payload, origins)
	}
	if len(e.observers) > 0 || e.OnDone != nil {
		var published []string
		if len(res.Outputs) > 0 {
			published = make([]string, len(res.Outputs))
			for i, out := range res.Outputs {
				published[i] = out.Topic
			}
		}
		d := DoneInfo{
			Node:        rt.node.Name(),
			Input:       msg,
			Arrived:     msg.Header.Stamp,
			Started:     started,
			CPUDone:     cpuDone,
			Finished:    now,
			Work:        res.Work,
			Outputs:     len(res.Outputs),
			Published:   published,
			FusedInputs: res.FusedInputs,
		}
		e.emit(Event{Kind: Done, Done: d})
		if e.OnDone != nil {
			e.OnDone(d)
		}
	}
	rt.busy = false
	if e.Sched != nil {
		e.schedDispatch()
		return
	}
	e.tryDispatch(rt)
}

// NodeNames returns registered node names in registration order.
func (e *Executor) NodeNames() []string {
	out := make([]string, len(e.order))
	copy(out, e.order)
	return out
}
