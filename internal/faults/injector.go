package faults

import (
	"time"

	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/ros"
)

// Injector applies one Schedule to one running stack. It owns the
// executor's publish filter and installs the first callback filter,
// observes the executor's Published events to learn burst payloads,
// and drives burst and contention activity off the simulation clock.
// All of its decisions are functions of (schedule, seed, dispatch
// order), so a deterministic simulation stays deterministic with the
// injector attached. avstack.AttachLayers installs it as the first
// run-time layer, so the supervisor's callback filter wraps its
// verdicts.
type Injector struct {
	sched Schedule
	sim   *platform.Sim
	ex    *platform.Executor

	// rngs holds one independent stream per fault, split from the seed
	// in fault order.
	rngs []*mathx.RNG

	// lastPayload remembers the newest payload per burst topic. Attach
	// seeds a nil entry for each burst topic; only those are cached.
	lastPayload map[string]any

	// events aggregates the applied perturbations per (kind, target).
	events map[eventKey]*Event
}

type eventKey struct {
	kind   Kind
	target string
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
		events:      make(map[eventKey]*Event),
	}
	root := mathx.NewRNG(sched.Seed)
	for range sched.Faults {
		in.rngs = append(in.rngs, root.Split())
	}
	return in, nil
}

// Schedule returns the schedule the injector applies.
func (in *Injector) Schedule() Schedule { return in.sched }

// Attach wires the injector into a stack's executor and schedules the
// windowed activities (bursts, contention hogs).
func (in *Injector) Attach(ex *platform.Executor) {
	in.sim = ex.Sim
	in.ex = ex

	ex.PublishFilter = in.filterPublish
	ex.CallbackFilter = in.filterCallback

	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		switch f.Kind {
		case KindBurst:
			in.lastPayload[f.Topic] = nil
			in.scheduleBurst(f, in.rngs[i])
		case KindContention:
			in.scheduleContention(f)
		}
	}
	if len(in.lastPayload) > 0 {
		ex.Observe(in.observe)
	}
}

// filterPublish applies the message-level faults (drop, delay, jitter,
// corrupt, skew, dup, truncate).
func (in *Injector) filterPublish(topic string, payload any, now time.Duration) platform.PublishVerdict {
	var v platform.PublishVerdict
	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		if f.Topic != topic || !f.ActiveAt(now) {
			continue
		}
		rng := in.rngs[i]
		switch f.Kind {
		case KindDrop:
			if rng.Bool(f.Prob) {
				in.count(f, 1, now)
				v.Drop = true
				return v
			}
		case KindDelay:
			extra := f.Delay
			if f.Sigma > 0 {
				extra += time.Duration(rng.Range(0, float64(f.Sigma)))
			}
			v.Delay += extra
			in.count(f, 1, now)
		case KindJitter:
			n := rng.Norm()
			if n < 0 {
				n = -n
			}
			v.Delay += time.Duration(n * float64(f.Sigma))
			in.count(f, 1, now)
		case KindCorrupt:
			if rng.Bool(f.Prob) {
				if mutated := corruptPayload(rng, payload); mutated != nil {
					v.Payload = mutated
					payload = mutated
					in.count(f, 1, now)
				}
			}
		case KindSkew:
			if rng.Bool(f.Prob) {
				v.StampSkew += f.Skew
				in.count(f, 1, now)
			}
		case KindDup:
			if rng.Bool(f.Prob) {
				v.Copies += f.Copies
				in.count(f, f.Copies, now)
			}
		case KindTruncate:
			if rng.Bool(f.Prob) {
				if mutated := truncatePayload(rng, payload, f.Frac); mutated != nil {
					v.Payload = mutated
					payload = mutated
					in.count(f, 1, now)
				}
			}
		}
	}
	return v
}

// filterCallback applies the node-level faults (stall, crash).
func (in *Injector) filterCallback(node string, _ *ros.Message, now time.Duration) platform.CallbackVerdict {
	var v platform.CallbackVerdict
	for i := range in.sched.Faults {
		f := &in.sched.Faults[i]
		if f.Node != node || !f.ActiveAt(now) {
			continue
		}
		switch f.Kind {
		case KindCrash:
			in.count(f, 1, now)
			v.Drop = true
			return v
		case KindStall:
			extra := f.Delay
			if f.Sigma > 0 {
				extra += time.Duration(in.rngs[i].Range(0, float64(f.Sigma)))
			}
			v.Stall += extra
			in.count(f, 1, now)
		}
	}
	return v
}

// observe caches the newest payload published on each burst topic.
// Payloads are shared and never reused, so holding one past the event
// is safe.
func (in *Injector) observe(ev platform.Event) {
	if _, burst := in.lastPayload[ev.Topic]; burst && ev.Kind == platform.Published {
		in.lastPayload[ev.Topic] = ev.Payload
	}
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
		if payload := in.lastPayload[f.Topic]; payload != nil {
			in.ex.Publish(f.Topic, payload)
			in.count(f, 1, now)
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
			now := in.sim.Now()
			if now >= f.End() {
				return
			}
			in.count(f, 1, now)
			in.ex.CPU.Submit(owner, f.Load, f.Bandwidth, func() {
				submit()
			})
		}
		in.sim.Schedule(f.Start, submit)
	}
}

// count adds n perturbations applied at now to a fault's aggregate. The
// simulation clock never runs backward, so the first call opens the
// window and every later one extends it.
func (in *Injector) count(f *Fault, n int, now time.Duration) {
	k := eventKey{f.Kind, f.Target()}
	ev := in.events[k]
	if ev == nil {
		ev = &Event{Kind: f.Kind, Target: k.target, First: now}
		in.events[k] = ev
	}
	ev.Count += n
	ev.Last = now
}

// Events returns the aggregate perturbation counters, deterministically
// ordered by kind then target.
func (in *Injector) Events() []Event {
	var out []Event
	for _, ev := range in.events {
		out = append(out, *ev)
	}
	sortEvents(out)
	return out
}
