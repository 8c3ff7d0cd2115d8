// Package supervise implements the node-lifecycle supervision layer:
// it detects crashed or silent nodes, restarts them with exponential
// backoff plus seeded jitter, and restores the last state checkpoint on
// restart — the bounded-delay middleware recovery that He & Shi argue
// must live beside the executor, built on the executor's callback
// filter and event stream.
//
// Detection runs on two channels. Missed dispatch: the supervisor's
// callback filter runs in front of the fault layer, so a crash verdict
// from below is observed the instant a dispatched input is consumed
// unprocessed. Header-stamp liveness: each policy may watch the node's
// output topic and declare the node down when no fresh publication
// arrived within the timeout. While a node is down the supervisor owns
// its inputs — every dispatch is consumed and counted as a lost frame,
// exactly as a dead process's subscriptions would lose them — until a
// restart probe succeeds.
//
// All stochastic decisions (backoff jitter) draw from per-node RNG
// streams split from the config seed, so a deterministic simulation
// stays deterministic with the supervisor attached: the same seed and
// fault schedule always produce the same restart timeline.
//
// Hook point and ordering. The supervisor decides at the executor's
// *dispatch* instant: its CallbackFilter wraps the fault injector's, so
// it pre-empts a down node's input before the injector draws from its
// RNG and sees the injector's crash verdicts. It observes the rest from
// the executor's event stream: Published events on watched topics for
// output liveness, Done events to confirm a restart. In the decision
// chain it is third: the injector perturbs at publish, the guard
// adjudicates at ingress — a quarantined frame is never dispatched, so
// quarantine is never mistaken for a crash — and the scheduler's pick
// runs last, choosing only among dispatches the supervisor let stand.
//
// Ownership. The callback filter reads the dispatched message and
// keeps none. Checkpoints are deep copies on both sides of the
// Checkpointer contract — the supervisor retains no live node state.
package supervise

import (
	"fmt"
	"time"

	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/trace"
)

// Checkpointer is the state snapshot/restore hook a supervised stateful
// node implements. Snapshot must deep-copy: the supervisor holds the
// returned value across later mutations of the node. Restore(nil)
// models a cold restart with no checkpoint — the node resets to its
// initial state.
type Checkpointer interface {
	Snapshot() any
	Restore(snapshot any)
}

// Supervision timing. Every supervised stack runs with these values.
const (
	// checkPeriod is the liveness-check and checkpoint cadence.
	checkPeriod = 100 * time.Millisecond
	// checkpointEvery is the minimum spacing between checkpoints of a
	// healthy node.
	checkpointEvery = time.Second
	// backoffBase is the first restart delay; each failed probe doubles
	// it up to backoffMax.
	backoffBase = 200 * time.Millisecond
	backoffMax  = 2 * time.Second
	// backoffJitter is the uniform extra fraction added to each delay,
	// drawn from the node's seeded stream.
	backoffJitter = 0.25
	// livenessTimeout declares a node with a watched topic down when no
	// fresh output arrived for this long.
	livenessTimeout = time.Second
)

// Policy declares supervision for one node.
type Policy struct {
	// Node names the supervised node.
	Node string
	// Topic is the node's output topic watched for header-stamp
	// liveness; empty disables liveness detection (the node is then
	// only supervised through missed dispatches).
	Topic string
	// Checkpoint, when non-nil, is snapshotted periodically and
	// restored on restart, so a crash loses only the state since the
	// last checkpoint instead of silently keeping stale in-memory
	// state across the crash window.
	Checkpoint Checkpointer
}

// Config selects the supervised nodes.
type Config struct {
	// Seed drives the backoff jitter through per-node split streams.
	Seed uint64
	// Policies lists the supervised nodes.
	Policies []Policy
}

// Validate checks the policies.
func (c Config) Validate() error {
	if len(c.Policies) == 0 {
		return fmt.Errorf("supervise: no policies")
	}
	seen := map[string]bool{}
	for _, p := range c.Policies {
		if p.Node == "" {
			return fmt.Errorf("supervise: policy needs a node")
		}
		if seen[p.Node] {
			return fmt.Errorf("supervise: duplicate policy for node %q", p.Node)
		}
		seen[p.Node] = true
	}
	return nil
}

// Detection causes reported in trace.Outage.Cause.
const (
	// CauseCrash marks an outage detected from a missed dispatch (the
	// layer below consumed the node's input without running it).
	CauseCrash = "crash"
	// CauseStaleOutput marks an outage detected from header-stamp
	// liveness (no fresh output within the policy timeout).
	CauseStaleOutput = "stale-output"
)

// node lifecycle phases.
const (
	phaseHealthy = iota
	// phaseDown: the supervisor considers the process dead; inputs are
	// consumed as lost frames and a restart attempt is pending.
	phaseDown
	// phaseProbe: a restart was issued; the next dispatched input
	// decides — a completed callback confirms recovery, another missed
	// dispatch fails the probe and doubles the backoff.
	phaseProbe
)

type nodeState struct {
	policy Policy
	rng    *mathx.RNG

	phase int
	// attempt counts the restarts since the last crash was detected or
	// the node last published fresh output, and sets the backoff.
	attempt int

	// Checkpoint bookkeeping.
	snapshot    any
	snapshotAt  time.Duration
	restored    bool
	restoredAge time.Duration

	// Liveness bookkeeping (header stamps on the output topic).
	seenOut   bool
	lastFresh time.Duration
}

// Supervisor is an attached supervision layer over one stack.
type Supervisor struct {
	sim    *platform.Sim
	rec    *trace.Recorder
	states map[string]*nodeState
	order  []string
}

// New prepares a supervisor; Attach wires it into a stack.
func New(cfg Config) (*Supervisor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Supervisor{states: make(map[string]*nodeState)}
	// Decorrelate the jitter streams from fault-injector streams built
	// from the same seed.
	root := mathx.NewRNG(cfg.Seed ^ 0x5095_EC70_12BA_CC0F)
	for _, p := range cfg.Policies {
		s.states[p.Node] = &nodeState{policy: p, rng: root.Split()}
		s.order = append(s.order, p.Node)
	}
	return s, nil
}

// Attach wires the supervisor into an executor and trace recorder and
// starts the periodic liveness/checkpoint tick. rec may be nil. Its
// callback filter wraps whatever filter is installed, so it observes
// crash verdicts only from a layer attached before it;
// avstack.AttachLayers attaches it right after the fault injector.
func (s *Supervisor) Attach(ex *platform.Executor, rec *trace.Recorder) {
	s.sim = ex.Sim
	s.rec = rec

	s.chainCallbackFilter(ex)
	ex.Observe(s.observe)
	s.sim.After(checkPeriod, s.tick)
}

// chainCallbackFilter wraps the installed callback filter (the fault
// injector's, if any): down nodes lose their inputs here, before the
// wrapped filter runs; healthy and probing nodes delegate to it, and
// its verdict is the missed-dispatch detection signal.
func (s *Supervisor) chainCallbackFilter(ex *platform.Executor) {
	prev := ex.CallbackFilter
	ex.CallbackFilter = func(node string, m *ros.Message, now time.Duration) platform.CallbackVerdict {
		st := s.states[node]
		if st != nil && st.phase == phaseDown {
			// The process is down: its subscriptions are dead and this
			// input is lost.
			if s.rec != nil {
				s.rec.OnOutageFrameLost(node)
			}
			return platform.CallbackVerdict{Drop: true}
		}
		var v platform.CallbackVerdict
		if prev != nil {
			v = prev(node, m, now)
		}
		if v.Drop && st != nil {
			switch st.phase {
			case phaseHealthy:
				s.declareDown(st, CauseCrash, now)
			case phaseProbe:
				s.probeFailed(st, now)
			}
			if s.rec != nil {
				s.rec.OnOutageFrameLost(node)
			}
		}
		return v
	}
}

// observe tracks fresh publications on watched output topics, and the
// first completion after a restart, which confirms recovery.
func (s *Supervisor) observe(ev platform.Event) {
	switch ev.Kind {
	case platform.Published:
		for _, name := range s.order {
			if st := s.states[name]; st.policy.Topic == ev.Topic {
				st.seenOut = true
				st.lastFresh = ev.Stamp
				if st.phase == phaseHealthy {
					st.attempt = 0
				}
			}
		}
	case platform.Done:
		if st := s.states[ev.Done.Node]; st != nil && st.phase == phaseProbe {
			s.recovered(st)
		}
	}
}

// tick runs one periodic pass: checkpoint healthy nodes and check
// output liveness.
func (s *Supervisor) tick() {
	now := s.sim.Now()
	for _, name := range s.order {
		st := s.states[name]
		if st.phase != phaseHealthy {
			continue
		}
		if cp := st.policy.Checkpoint; cp != nil &&
			(st.snapshot == nil || now-st.snapshotAt >= checkpointEvery) {
			st.snapshot = cp.Snapshot()
			st.snapshotAt = now
		}
		if st.seenOut && now-st.lastFresh > livenessTimeout {
			s.declareDown(st, CauseStaleOutput, now)
		}
	}
	s.sim.After(checkPeriod, s.tick)
}

// declareDown opens an outage and schedules its first restart. A
// crash outage backs off from backoffBase. A stale-output outage
// continues the backoff where the node's last outage left it unless
// the node has published fresh output since: a node that runs its
// callbacks but stays silent is restarted at growing intervals, not
// every liveness timeout.
func (s *Supervisor) declareDown(st *nodeState, cause string, now time.Duration) {
	st.phase = phaseDown
	if cause == CauseCrash {
		st.attempt = 0
	}
	st.restored = false
	st.restoredAge = 0
	if s.rec != nil {
		s.rec.OnOutageOpen(st.policy.Node, cause, now)
	}
	s.scheduleRestart(st)
}

// probeFailed returns a probing node to down and doubles the backoff.
func (s *Supervisor) probeFailed(st *nodeState, now time.Duration) {
	st.phase = phaseDown
	s.scheduleRestart(st)
}

// scheduleRestart arms the next restart attempt after the backoff
// delay for the current attempt count, plus seeded jitter.
func (s *Supervisor) scheduleRestart(st *nodeState) {
	s.sim.After(s.backoff(st), func() { s.restart(st) })
}

// backoff returns backoffBase·2^attempt capped at backoffMax, with a
// uniform extra of up to backoffJitter of the delay.
func (s *Supervisor) backoff(st *nodeState) time.Duration {
	d := backoffBase
	for i := 0; i < st.attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d + time.Duration(st.rng.Range(0, backoffJitter*float64(d)))
}

// restart issues one restart attempt: the replacement process boots,
// restores the last checkpoint (losing everything since it), and the
// node enters the probe phase — the next dispatch decides whether the
// restart took.
func (s *Supervisor) restart(st *nodeState) {
	if st.phase != phaseDown {
		return
	}
	st.attempt++
	if s.rec != nil {
		s.rec.OnOutageRestart(st.policy.Node)
	}
	if cp := st.policy.Checkpoint; cp != nil {
		cp.Restore(st.snapshot)
		st.restored = st.snapshot != nil
		st.restoredAge = s.sim.Now() - st.snapshotAt
	}
	st.phase = phaseProbe
}

// recovered closes the outage after a restarted node completed its
// first callback, and immediately re-checkpoints the restored state.
// The node gets a full liveness timeout from now to publish; its
// attempt count stands until it does.
func (s *Supervisor) recovered(st *nodeState) {
	now := s.sim.Now()
	st.phase = phaseHealthy
	st.lastFresh = now
	recheckpointed := false
	if cp := st.policy.Checkpoint; cp != nil {
		st.snapshot = cp.Snapshot()
		st.snapshotAt = now
		recheckpointed = true
	}
	if s.rec != nil {
		s.rec.OnOutageClose(st.policy.Node, now, st.restored, st.restoredAge, recheckpointed)
	}
}
