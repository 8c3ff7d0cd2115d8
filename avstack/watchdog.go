package avstack

import (
	"fmt"
	"time"

	"repro/internal/autoware"
	"repro/internal/platform"
)

// watchPeriod is the watchdog's staleness check and substitution
// cadence.
const watchPeriod = 100 * time.Millisecond

// fallbackLastGood names the watchdog's one fallback in degraded
// intervals: republish the last fresh output each check period, keeping
// downstream consumers fed with (flagged) stale data.
const fallbackLastGood = "last-good"

// WatchPolicy declares graceful degradation for one node: which output
// topic to watch for staleness and when to consider it stale. While it
// is, the watchdog republishes the topic's last fresh output.
type WatchPolicy struct {
	// Node names the watched node (reporting key).
	Node string
	// Topic is the node's output topic whose header stamps are watched.
	Topic string
	// Timeout declares the output stale when no fresh publication
	// arrived for this long.
	Timeout time.Duration
}

// watchdog is the graceful-degradation layer: it detects stale node
// outputs via header stamps, republishes the last fresh output while
// the fault persists, and records recovery once fresh output resumes.
// Degraded intervals are surfaced through the stack's trace recorder.
type watchdog struct {
	stack  *autoware.Stack
	states []*watchState
}

type watchState struct {
	policy WatchPolicy
	// seen is false until the first fresh publication; the watchdog
	// does not declare staleness before the node ever produced output.
	seen      bool
	lastFresh time.Duration
	lastGood  any
	// pending marks payload pointers the watchdog itself published, so
	// their delivery is not mistaken for node recovery.
	pending  map[any]int
	degraded bool
}

// attachWatchdog builds the layer over a stack, observes the executor's
// Published events and starts the periodic staleness check. A policy
// without a node, topic or timeout is an error.
func attachWatchdog(stack *autoware.Stack, policies []WatchPolicy) error {
	w := &watchdog{stack: stack}
	for i, p := range policies {
		if p.Node == "" || p.Topic == "" || p.Timeout <= 0 {
			return fmt.Errorf("avstack: watch policy %d needs node, topic and timeout", i)
		}
		w.states = append(w.states, &watchState{
			policy:  p,
			pending: make(map[any]int),
		})
	}
	stack.Executor.Observe(w.observe)
	stack.Sim.After(watchPeriod, w.tick)
	return nil
}

// observe tracks fresh publications on watched topics, ignoring the
// watchdog's own substituted publications. Payloads are shared and
// never reused, so lastGood stays valid past the event.
func (w *watchdog) observe(ev platform.Event) {
	if ev.Kind != platform.Published {
		return
	}
	for _, st := range w.states {
		if st.policy.Topic != ev.Topic {
			continue
		}
		if n, ours := st.pending[ev.Payload]; ours {
			if n <= 1 {
				delete(st.pending, ev.Payload)
			} else {
				st.pending[ev.Payload] = n - 1
			}
			continue // substitution, not recovery
		}
		st.seen = true
		st.lastFresh = ev.Stamp
		st.lastGood = ev.Payload
	}
}

// tick runs one staleness check over every watched node.
func (w *watchdog) tick() {
	now := w.stack.Sim.Now()
	rec := w.stack.Recorder
	for _, st := range w.states {
		if !st.seen {
			continue
		}
		stale := now-st.lastFresh > st.policy.Timeout
		switch {
		case stale:
			if !st.degraded {
				st.degraded = true
				rec.OnDegrade(st.policy.Node, fallbackLastGood, now)
			}
			w.substitute(st)
		case st.degraded:
			st.degraded = false
			rec.OnRecover(st.policy.Node, now)
		}
	}
	w.stack.Sim.After(watchPeriod, w.tick)
}

// substitute republishes the last fresh output once per check period
// while degraded.
func (w *watchdog) substitute(st *watchState) {
	if st.lastGood == nil {
		return
	}
	st.pending[st.lastGood]++
	w.stack.Executor.Publish(st.policy.Topic, st.lastGood)
	w.stack.Recorder.OnSubstitute(st.policy.Node)
}
