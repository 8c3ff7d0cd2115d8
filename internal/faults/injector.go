package faults

import (
	"time"

	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/ros"
)

// Injector applies one Schedule to one running stack. It chains onto
// the executor's publish/callback filters (preserving filters other
// layers installed), taps the bus to learn burst payloads, and drives
// burst and contention activity off the simulation clock. All of its
// decisions are functions of (schedule, seed, dispatch order), so a
// deterministic simulation stays deterministic with the injector
// attached. avstack.AttachLayers installs it as the first run-time
// layer, so every later layer's filter chains in front of its verdicts.
type Injector struct {
	sched Schedule
	sim   *platform.Sim
	ex    *platform.Executor

	// rngs holds one independent stream per fault, split from the seed
	// in fault order.
	rngs []*mathx.RNG

	// lastPayload remembers the newest payload per burst topic, with
	// per-topic seq de-duplication of the per-subscription deliver hook.
	lastPayload map[string]any
	lastSeq     map[string]uint64

	counts map[Kind]map[string]int

	// losses, when set, receives every message-losing verdict (drop,
	// crash) with its timestamp, so traces can distinguish "dropped by
	// an injected fault" from "never produced".
	losses LossRecorder
}

// LossRecorder receives fault-induced message losses as they happen.
// trace.Recorder implements it; SetLossRecorder wires it up.
type LossRecorder interface {
	OnFaultLoss(kind, target string, at time.Duration)
}

// New prepares an injector for the schedule. Attach must be called
// before the simulation runs past the first fault window.
func New(sched Schedule) (*Injector, error) {
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		sched:       sched,
		lastPayload: make(map[string]any),
		lastSeq:     make(map[string]uint64),
		counts:      make(map[Kind]map[string]int),
	}
	root := mathx.NewRNG(sched.Seed)
	for range sched.Faults {
		in.rngs = append(in.rngs, root.Split())
	}
	return in, nil
}

// Schedule returns the schedule the injector applies.
func (in *Injector) Schedule() Schedule { return in.sched }

// SetLossRecorder installs the trace hook for message-losing verdicts.
// Call any time; nil disables.
func (in *Injector) SetLossRecorder(r LossRecorder) { in.losses = r }

// Attach wires the injector into a stack's executor and bus and
// schedules the windowed activities (bursts, contention hogs).
func (in *Injector) Attach(ex *platform.Executor, bus *ros.Bus) {
	in.sim = ex.Sim
	in.ex = ex

	in.chainPublishFilter(ex)
	in.chainCallbackFilter(ex)

	needTap := false
	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		switch f.Kind {
		case KindBurst:
			needTap = true
			in.scheduleBurst(f, in.rngs[i])
		case KindContention:
			in.scheduleContention(f)
		}
	}
	if needTap {
		bus.Tap(in.observeDeliver, nil)
	}
}

// chainPublishFilter installs the message-level faults (drop, delay,
// jitter, corrupt, skew, dup, truncate) behind any existing filter.
func (in *Injector) chainPublishFilter(ex *platform.Executor) {
	prev := ex.PublishFilter
	ex.PublishFilter = func(topic string, payload any, now time.Duration) platform.PublishVerdict {
		var v platform.PublishVerdict
		if prev != nil {
			v = prev(topic, payload, now)
			if v.Drop {
				return v
			}
			if v.Payload != nil {
				payload = v.Payload
			}
		}
		for i := range in.sched.Faults {
			f := &in.sched.Faults[i]
			if f.Topic != topic || !f.ActiveAt(now) {
				continue
			}
			rng := in.rngs[i]
			switch f.Kind {
			case KindDrop:
				if rng.Bool(f.Prob) {
					in.count(f, 1)
					if in.losses != nil {
						in.losses.OnFaultLoss(string(KindDrop), f.Target(), now)
					}
					v.Drop = true
					return v
				}
			case KindDelay:
				extra := f.Delay
				if f.Sigma > 0 {
					extra += time.Duration(rng.Range(0, float64(f.Sigma)))
				}
				v.Delay += extra
				in.count(f, 1)
			case KindJitter:
				n := rng.Norm()
				if n < 0 {
					n = -n
				}
				v.Delay += time.Duration(n * float64(f.Sigma))
				in.count(f, 1)
			case KindCorrupt:
				if rng.Bool(f.Prob) {
					if mutated := corruptPayload(rng, payload); mutated != nil {
						v.Payload = mutated
						payload = mutated
						in.count(f, 1)
					}
				}
			case KindSkew:
				if rng.Bool(f.Prob) {
					v.StampSkew += f.Skew
					in.count(f, 1)
				}
			case KindDup:
				if rng.Bool(f.Prob) {
					v.Copies += f.Copies
					in.count(f, f.Copies)
				}
			case KindTruncate:
				if rng.Bool(f.Prob) {
					if mutated := truncatePayload(rng, payload, f.Frac); mutated != nil {
						v.Payload = mutated
						payload = mutated
						in.count(f, 1)
					}
				}
			}
		}
		return v
	}
}

// chainCallbackFilter installs the node-level faults (stall, crash)
// behind any existing filter.
func (in *Injector) chainCallbackFilter(ex *platform.Executor) {
	prev := ex.CallbackFilter
	ex.CallbackFilter = func(node string, m *ros.Message, now time.Duration) platform.CallbackVerdict {
		var v platform.CallbackVerdict
		if prev != nil {
			v = prev(node, m, now)
			if v.Drop {
				return v
			}
		}
		for i := range in.sched.Faults {
			f := &in.sched.Faults[i]
			if f.Node != node || !f.ActiveAt(now) {
				continue
			}
			switch f.Kind {
			case KindCrash:
				in.count(f, 1)
				if in.losses != nil {
					in.losses.OnFaultLoss(string(KindCrash), f.Target(), now)
				}
				v.Drop = true
				return v
			case KindStall:
				extra := f.Delay
				if f.Sigma > 0 {
					extra += time.Duration(in.rngs[i].Range(0, float64(f.Sigma)))
				}
				v.Stall += extra
				in.count(f, 1)
			}
		}
		return v
	}
}

// observeDeliver remembers the newest payload per topic for bursts,
// de-duplicating the per-subscription fan-out by sequence number.
//
// Borrow contract: bus taps receive the pooled *Message for the
// duration of the call only — retaining m (or anything reachable
// through its Header) without m.Retain() is a use-after-recycle once
// the pool's reclamation epoch passes. Payloads are never pooled, so
// caching m.Payload here is safe indefinitely.
func (in *Injector) observeDeliver(sub *ros.Subscription, m *ros.Message) {
	if m.Header.Seq == in.lastSeq[sub.Topic] {
		return
	}
	in.lastSeq[sub.Topic] = m.Header.Seq
	in.lastPayload[sub.Topic] = m.Payload
}

// scheduleBurst installs the republish pump for one burst fault.
func (in *Injector) scheduleBurst(f *Fault, rng *mathx.RNG) {
	period := time.Duration(float64(time.Second) / f.Rate)
	var tick func()
	tick = func() {
		now := in.sim.Now()
		if now >= f.End() {
			return
		}
		if payload, ok := in.lastPayload[f.Topic]; ok {
			in.ex.Publish(f.Topic, payload)
			in.count(f, 1)
		}
		// A touch of period noise keeps the burst from phase-locking to
		// the victim's own publication cadence.
		drift := time.Duration(rng.Range(0, float64(period)/16))
		in.sim.After(period+drift, tick)
	}
	in.sim.Schedule(f.Start, tick)
}

// scheduleContention launches the background hog streams for one
// contention fault: each worker keeps one Load-second task in flight on
// the shared CPU until the window closes.
func (in *Injector) scheduleContention(f *Fault) {
	owner := "fault:contention"
	for w := 0; w < f.Workers; w++ {
		var submit func()
		submit = func() {
			if in.sim.Now() >= f.End() {
				return
			}
			in.count(f, 1)
			in.ex.CPU.Submit(owner, f.Load, f.Bandwidth, func() {
				submit()
			})
		}
		in.sim.Schedule(f.Start, submit)
	}
}

// count bumps the aggregate event counter for a fault.
func (in *Injector) count(f *Fault, n int) {
	byTarget := in.counts[f.Kind]
	if byTarget == nil {
		byTarget = make(map[string]int)
		in.counts[f.Kind] = byTarget
	}
	byTarget[f.Target()] += n
}

// Events returns the aggregate perturbation counters, deterministically
// ordered by kind then target.
func (in *Injector) Events() []Event {
	var out []Event
	for kind, byTarget := range in.counts {
		for target, n := range byTarget {
			out = append(out, Event{Kind: kind, Target: target, Count: n})
		}
	}
	sortEvents(out)
	return out
}
