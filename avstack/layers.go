package avstack

import (
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/tracking"
	"repro/internal/sched"
	"repro/internal/supervise"
	"repro/internal/trace"
)

// Layers selects the run-time layers AttachLayers installs on a built
// stack; the zero value installs none. The integrity guard and the
// scheduler's queue depth are build options instead (Options.Guard or
// autoware.Config.Guard, and autoware.Config.VisionQueueDepth).
type Layers struct {
	// Faults is the schedule to inject. An empty schedule attaches no
	// injector; its seed still seeds supervision.
	Faults faults.Schedule
	// Supervise attaches the default supervision layer: the tracker and
	// the localizer, watched on their output topics with a 1 s liveness
	// timeout, restarted with backoff and restored from checkpoints.
	Supervise bool
	// ShedBudget sheds, at dispatch, any queued frame whose oldest
	// sensor origin is older than the budget. Zero disables.
	ShedBudget time.Duration
	// Watch lists the graceful-degradation watchdog's policies; none
	// attaches no watchdog.
	Watch []WatchPolicy
	// Sched, when non-nil, attaches the critical-path deadline scheduler
	// with these knobs. A positive Sched.ShedBudget replaces ShedBudget.
	// Its QueueDepth is a build option and is not read here.
	Sched *sched.Knobs
	// Criticality is the profile the scheduler's priority tie-break
	// reads; nil falls back to registration order.
	Criticality *sched.Criticality
}

// AttachLayers installs the run-time layers on a stack before it runs.
// It is the only code that wires them, in this order:
//
//  1. the fault injector;
//  2. supervision, whose callback filter wraps the injector's and so
//     sees its crash verdicts — the one order that matters, since the
//     layers' observers each see every event regardless;
//  3. the shed budget: the scheduler knobs' when positive, else
//     ShedBudget;
//  4. the watchdog;
//  5. the scheduler, which picks only among the dispatches every layer
//     above let stand.
//
// It returns the injector, nil for an empty schedule.
func AttachLayers(stack *autoware.Stack, l Layers) (*faults.Injector, error) {
	var inj *faults.Injector
	if len(l.Faults.Faults) > 0 {
		var err error
		if inj, err = faults.New(l.Faults); err != nil {
			return nil, err
		}
		inj.Attach(stack.Executor)
	}
	if l.Supervise {
		sup, err := supervise.New(defaultSupervision(stack, l.Faults.Seed))
		if err != nil {
			return nil, err
		}
		sup.Attach(stack.Executor, stack.Recorder)
	}
	budget := l.ShedBudget
	if l.Sched != nil && l.Sched.ShedBudget > 0 {
		budget = l.Sched.ShedBudget
	}
	if budget > 0 {
		stack.Executor.ShedBudget = budget
	}
	if len(l.Watch) > 0 {
		if err := attachWatchdog(stack, l.Watch); err != nil {
			return nil, err
		}
	}
	if l.Sched != nil {
		stack.Executor.Sched = sched.NewPolicy(l.Criticality, *l.Sched)
	}
	return inj, nil
}

// AttachLayers installs the run-time layers on the system (see the
// stack-level AttachLayers). Call before Run.
func (s *System) AttachLayers(l Layers) (*faults.Injector, error) { return AttachLayers(s.stack, l) }

// defaultSupervision is the supervision config Layers.Supervise
// attaches.
func defaultSupervision(stack *autoware.Stack, seed uint64) supervise.Config {
	cfg := supervise.Config{Seed: seed}
	if stack.Tracker != nil {
		cfg.Policies = append(cfg.Policies, supervise.Policy{
			Node:       autoware.TrackerNodeName,
			Topic:      tracking.TopicObjects,
			Checkpoint: stack.Tracker,
		})
	}
	if stack.NDT != nil {
		cfg.Policies = append(cfg.Policies, supervise.Policy{
			Node:       autoware.LocalizerNodeName,
			Topic:      localization.TopicCurrentPose,
			Checkpoint: stack.NDT,
		})
	}
	return cfg
}

// AttachChainLog installs lineage-chain recording on a stack's executor,
// closing chains on the standard Table IV paths with the stack's
// measurement warmup. The log is a pure observer — attaching it never
// changes a virtual-time sample — so it is safe on the profiling run
// whose chains yield Layers.Criticality (see sched.Analyze).
func AttachChainLog(stack *autoware.Stack) *trace.ChainLog {
	cl := trace.NewChainLog(trace.StandardPaths())
	cl.Warmup = stack.Config.Warmup
	cl.Attach(stack.Executor)
	return cl
}
