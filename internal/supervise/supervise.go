// Package supervise implements the node-lifecycle supervision layer:
// it detects crashed or silent nodes, restarts them with exponential
// backoff plus seeded jitter, and restores the last state checkpoint on
// restart — the bounded-delay middleware recovery that He & Shi argue
// must live beside the executor, built on the same filter chain the
// fault injector uses.
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
// Hook point and ordering. The supervisor lives at the executor's
// *dispatch* instant (CallbackFilter, chained in front of the fault
// injector's so crash verdicts from below are visible) plus a bus Tap
// for output liveness. In the decision chain it is third: the injector
// perturbs at publish, the guard adjudicates at ingress — a
// quarantined frame is never dispatched, so quarantine is never
// mistaken for a crash — and the scheduler's pick runs last, choosing
// only among dispatches the supervisor let stand.
//
// Ownership. The callback filter borrows the dispatched message for
// the call; a Drop verdict for a down node leaves the release to the
// executor. Checkpoints are deep copies on both sides of the
// Checkpointer contract — the supervisor retains no live node state
// and no bus envelopes.
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

// Policy declares supervision for one node.
type Policy struct {
	// Node names the supervised node.
	Node string
	// Topic is the node's output topic watched for header-stamp
	// liveness (required when LivenessTimeout is set).
	Topic string
	// LivenessTimeout declares the node down when no fresh output
	// arrived for this long; zero disables liveness detection (the
	// node is then only supervised through missed dispatches).
	LivenessTimeout time.Duration
	// Checkpoint, when non-nil, is snapshotted periodically and
	// restored on restart, so a crash loses only the state since the
	// last checkpoint instead of silently keeping stale in-memory
	// state across the crash window.
	Checkpoint Checkpointer
}

// Config tunes the supervisor.
type Config struct {
	// Seed drives the backoff jitter through per-node split streams.
	Seed uint64
	// Period is the liveness-check and checkpoint cadence (default 100 ms).
	Period time.Duration
	// CheckpointEvery is the minimum spacing between checkpoints of a
	// healthy node (default 1 s).
	CheckpointEvery time.Duration
	// BackoffBase is the first restart delay (default 200 ms); each
	// failed probe doubles it up to BackoffMax (default 2 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BackoffJitter is the uniform extra fraction added to each delay,
	// drawn from the node's seeded stream (default 0.25).
	BackoffJitter float64
	// Policies lists the supervised nodes.
	Policies []Policy
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 100 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BackoffJitter <= 0 {
		c.BackoffJitter = 0.25
	}
	return c
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
		if p.LivenessTimeout > 0 && p.Topic == "" {
			return fmt.Errorf("supervise: liveness policy for %q needs a topic", p.Node)
		}
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

	phase   int
	attempt int

	// Checkpoint bookkeeping.
	snapshot    any
	snapshotAt  time.Duration
	restored    bool
	restoredAge time.Duration

	// Liveness bookkeeping (header stamps on the output topic).
	seenOut   bool
	lastFresh time.Duration
	lastSeq   uint64
}

// Supervisor is an attached supervision layer over one stack.
type Supervisor struct {
	cfg    Config
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
	cfg = cfg.withDefaults()
	s := &Supervisor{cfg: cfg, states: make(map[string]*nodeState)}
	// Decorrelate the jitter streams from fault-injector streams built
	// from the same seed.
	root := mathx.NewRNG(cfg.Seed ^ 0x5095_EC70_12BA_CC0F)
	for _, p := range cfg.Policies {
		s.states[p.Node] = &nodeState{policy: p, rng: root.Split()}
		s.order = append(s.order, p.Node)
	}
	return s, nil
}

// Attach wires the supervisor into an executor, bus and trace recorder
// and starts the periodic liveness/checkpoint tick. rec may be nil. Its
// callback filter chains in front of whatever filter is installed, so
// it observes crash verdicts only from layers attached before it;
// avstack.AttachLayers attaches it right after the fault injector.
func (s *Supervisor) Attach(ex *platform.Executor, bus *ros.Bus, rec *trace.Recorder) {
	s.sim = ex.Sim
	s.rec = rec

	s.chainCallbackFilter(ex)
	s.chainOnDone(ex)
	bus.Tap(s.observeDeliver, nil)
	s.sim.After(s.cfg.Period, s.tick)
}

// chainCallbackFilter installs the supervisor in front of any existing
// filter chain (typically the fault injector): down nodes lose their
// inputs here, healthy and probing nodes delegate downward and the
// returned verdict is the missed-dispatch detection signal.
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

// chainOnDone observes completed callbacks: the first completion after
// a restart confirms recovery.
func (s *Supervisor) chainOnDone(ex *platform.Executor) {
	prev := ex.OnDone
	ex.OnDone = func(d platform.DoneInfo) {
		if prev != nil {
			prev(d)
		}
		if st := s.states[d.Node]; st != nil && st.phase == phaseProbe {
			s.recovered(st)
		}
	}
}

// observeDeliver tracks fresh publications on watched output topics,
// de-duplicating the per-subscription fan-out by sequence number.
//
// Borrow contract: the pooled envelope is valid only for this call;
// the supervisor copies out the scalar stamp and sequence and retains
// neither m nor anything reachable through its header. (A dropped
// callback input is released by the executor, not here — the verdict
// in chainCallbackFilter only decides, it never owns the envelope.)
func (s *Supervisor) observeDeliver(sub *ros.Subscription, m *ros.Message) {
	for _, name := range s.order {
		st := s.states[name]
		if st.policy.Topic != sub.Topic || m.Header.Seq == st.lastSeq {
			continue
		}
		st.lastSeq = m.Header.Seq
		st.seenOut = true
		st.lastFresh = m.Header.Stamp
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
			(st.snapshot == nil || now-st.snapshotAt >= s.cfg.CheckpointEvery) {
			st.snapshot = cp.Snapshot()
			st.snapshotAt = now
		}
		if st.policy.LivenessTimeout > 0 && st.seenOut &&
			now-st.lastFresh > st.policy.LivenessTimeout {
			s.declareDown(st, CauseStaleOutput, now)
		}
	}
	s.sim.After(s.cfg.Period, s.tick)
}

// declareDown opens an outage and schedules the first restart attempt.
func (s *Supervisor) declareDown(st *nodeState, cause string, now time.Duration) {
	st.phase = phaseDown
	st.attempt = 0
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

// backoff returns BackoffBase·2^attempt capped at BackoffMax, with a
// uniform extra of up to BackoffJitter of the delay.
func (s *Supervisor) backoff(st *nodeState) time.Duration {
	d := s.cfg.BackoffBase
	for i := 0; i < st.attempt && d < s.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d + time.Duration(st.rng.Range(0, s.cfg.BackoffJitter*float64(d)))
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
func (s *Supervisor) recovered(st *nodeState) {
	now := s.sim.Now()
	st.phase = phaseHealthy
	st.attempt = 0
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

// Nodes returns the supervised node names in policy order.
func (s *Supervisor) Nodes() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Down reports whether a supervised node is currently considered down
// (or mid-probe).
func (s *Supervisor) Down(node string) bool {
	st := s.states[node]
	return st != nil && st.phase != phaseHealthy
}
