package sched

import (
	"time"
)

// Knobs is the tunable configuration of the scheduler — the search space
// of the auto-tuner. The zero value is the identity schedule: no
// priorities, no shedding, no admission cap, stock queue depth.
type Knobs struct {
	// UsePriorities enables the criticality tie-break in the executor's
	// deadline pick. Off, ties fall through to registration order (the
	// seed's ordering), which keeps the candidate space anchored at the
	// baseline.
	UsePriorities bool
	// ShedBudget, when positive, sheds any candidate whose oldest origin
	// is staler than this at dispatch, on every node: frames that can no
	// longer make the 100 ms budget are removed before they burn
	// contended CPU time. avstack.AttachLayers installs it as the
	// executor's ShedBudget, in place of any Layers.ShedBudget.
	ShedBudget time.Duration
	// MaxInflight, when positive, caps concurrently admitted callbacks.
	// A slot is held for the CPU phase only — it frees at the CPU/GPU
	// pipeline boundary — so the cap throttles processor-sharing
	// oversubscription without serializing GPU offload.
	MaxInflight int
	// QueueDepth, when positive, overrides the vision detector's input
	// queue depth (the stack's deepest buffer and the classic source of
	// stale-frame latency).
	QueueDepth int
}

// Policy implements platform.SchedPolicy from a measured Criticality
// profile plus a Knobs setting's priorities and admission cap. It is
// stateless at dispatch time: every method is a pure read, so
// installing it cannot perturb virtual time beyond the dispatch
// decisions it exists to make.
type Policy struct {
	crit  *Criticality
	knobs Knobs
}

// NewPolicy builds a policy. crit may be nil (priorities all zero), and
// the zero Knobs yields a policy equivalent to running unscheduled
// except for the EDF pick order itself.
func NewPolicy(crit *Criticality, k Knobs) *Policy {
	return &Policy{crit: crit, knobs: k}
}

// Priority returns the node's criticality share when the priority
// tie-break is enabled, else 0 for every node (deadline order with
// registration-order ties — still deterministic).
func (p *Policy) Priority(node string) float64 {
	if !p.knobs.UsePriorities || p.crit == nil {
		return 0
	}
	return p.crit.Priority(node)
}

// MaxInflight returns the admission cap (0 = uncapped).
func (p *Policy) MaxInflight() int { return p.knobs.MaxInflight }
