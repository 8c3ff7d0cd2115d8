package avstack

import (
	"fmt"
	"time"

	"repro/internal/autoware"
	"repro/internal/ros"
)

// FallbackPolicy selects what the watchdog does while a watched node's
// output is stale.
type FallbackPolicy string

// Fallback policies.
const (
	// FallbackLastGood republishes the last fresh output each check
	// period, keeping downstream consumers fed with (flagged) stale data.
	FallbackLastGood FallbackPolicy = "last-good"
	// FallbackSkipFrame publishes nothing: downstream consumers skip the
	// frames, and the degraded interval records the outage.
	FallbackSkipFrame FallbackPolicy = "skip-frame"
	// FallbackDegrade publishes the output of a cheaper path derived
	// from the last fresh output (Degrade hook; last-good when nil).
	FallbackDegrade FallbackPolicy = "degrade"
)

// WatchPolicy declares graceful degradation for one node: which output
// topic to watch for staleness, when to consider it stale, and what to
// substitute while it is.
type WatchPolicy struct {
	// Node names the watched node (reporting key).
	Node string
	// Topic is the node's output topic whose header stamps are watched.
	Topic string
	// Timeout declares the output stale when no fresh publication
	// arrived for this long.
	Timeout time.Duration
	// Policy selects the fallback behavior.
	Policy FallbackPolicy
	// Degrade derives the cheaper-path output from the last fresh
	// payload (FallbackDegrade only). Nil falls back to the payload
	// itself.
	Degrade func(lastGood any) any
}

// WatchdogConfig configures the degradation layer.
type WatchdogConfig struct {
	// Period is the staleness check (and substitution) cadence.
	// Defaults to 100 ms.
	Period time.Duration
	// Policies lists the watched nodes.
	Policies []WatchPolicy
}

// watchdog is the graceful-degradation layer: it detects stale node
// outputs via header stamps, applies per-node fallback policies while
// the fault persists, and records recovery once fresh output resumes.
// Degraded intervals are surfaced through the stack's trace recorder.
type watchdog struct {
	stack  *autoware.Stack
	period time.Duration
	states []*watchState
}

type watchState struct {
	policy WatchPolicy
	// seen is false until the first fresh publication; the watchdog
	// does not declare staleness before the node ever produced output.
	seen      bool
	lastFresh time.Duration
	lastSeq   uint64
	lastGood  any
	// pending marks payload pointers the watchdog itself published, so
	// their delivery is not mistaken for node recovery.
	pending  map[any]int
	degraded bool
}

// attachWatchdog builds the layer over a stack, taps the bus and starts
// the periodic staleness check. A policy without a node, topic or
// timeout is an error.
func attachWatchdog(stack *autoware.Stack, cfg WatchdogConfig) error {
	period := cfg.Period
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	w := &watchdog{stack: stack, period: period}
	for i, p := range cfg.Policies {
		if p.Node == "" || p.Topic == "" || p.Timeout <= 0 {
			return fmt.Errorf("avstack: watch policy %d needs node, topic and timeout", i)
		}
		w.states = append(w.states, &watchState{
			policy:  p,
			pending: make(map[any]int),
		})
	}
	stack.Bus.Tap(w.observeDeliver, nil)
	stack.Sim.After(w.period, w.tick)
	return nil
}

// observeDeliver tracks fresh publications on watched topics,
// de-duplicating the per-subscription fan-out by sequence number and
// ignoring the watchdog's own substituted publications.
//
// Borrow contract: the pooled envelope is only valid for the duration
// of the tap; this method copies out the stamp and the payload pointer
// (payloads are never pooled or recycled, so lastGood stays valid) and
// must never retain m itself without m.Retain().
func (w *watchdog) observeDeliver(sub *ros.Subscription, m *ros.Message) {
	for _, st := range w.states {
		if st.policy.Topic != sub.Topic || m.Header.Seq == st.lastSeq {
			continue
		}
		st.lastSeq = m.Header.Seq
		if n, ours := st.pending[m.Payload]; ours {
			if n <= 1 {
				delete(st.pending, m.Payload)
			} else {
				st.pending[m.Payload] = n - 1
			}
			continue // substitution, not recovery
		}
		st.seen = true
		st.lastFresh = m.Header.Stamp
		st.lastGood = m.Payload
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
				rec.OnDegrade(st.policy.Node, string(st.policy.Policy), now)
			}
			w.substitute(st)
		case st.degraded:
			st.degraded = false
			rec.OnRecover(st.policy.Node, now)
		}
	}
	w.stack.Sim.After(w.period, w.tick)
}

// substitute publishes one fallback output per check period while
// degraded (except under skip-frame, which stays silent).
func (w *watchdog) substitute(st *watchState) {
	if st.policy.Policy == FallbackSkipFrame || st.lastGood == nil {
		return
	}
	payload := st.lastGood
	if st.policy.Policy == FallbackDegrade && st.policy.Degrade != nil {
		payload = st.policy.Degrade(st.lastGood)
	}
	st.pending[payload]++
	w.stack.Executor.Publish(st.policy.Topic, payload)
	w.stack.Recorder.OnSubstitute(st.policy.Node)
}
