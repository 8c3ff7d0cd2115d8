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
	// Watch configures the graceful-degradation watchdog; no policies
	// attaches none.
	Watch WatchdogConfig
	// Sched, when non-nil, attaches the critical-path deadline scheduler
	// with these knobs. Its QueueDepth is a build option and is not read
	// here.
	Sched *sched.Knobs
	// Criticality is the profile the scheduler's priority tie-break
	// reads; nil falls back to registration order.
	Criticality *sched.Criticality
}

// AttachLayers installs the run-time layers on a stack before it runs.
// It is the only code that wires them, and it wires them in the order
// the executor's chained hooks depend on:
//
//  1. the fault injector, recording its message losses in the stack's
//     trace;
//  2. supervision, whose callback filter chains in front of the
//     injector's and so sees its crash verdicts;
//  3. the shed budget;
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
		inj.SetLossRecorder(stack.Recorder)
		inj.Attach(stack.Executor, stack.Bus)
	}
	if l.Supervise {
		sup, err := supervise.New(defaultSupervision(stack, l.Faults.Seed))
		if err != nil {
			return nil, err
		}
		sup.Attach(stack.Executor, stack.Bus, stack.Recorder)
	}
	if l.ShedBudget > 0 {
		stack.Executor.ShedBudget = l.ShedBudget
	}
	if len(l.Watch.Policies) > 0 {
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
			Node:            autoware.TrackerNodeName,
			Topic:           tracking.TopicObjects,
			LivenessTimeout: time.Second,
			Checkpoint:      stack.Tracker,
		})
	}
	if stack.NDT != nil {
		cfg.Policies = append(cfg.Policies, supervise.Policy{
			Node:            autoware.LocalizerNodeName,
			Topic:           localization.TopicCurrentPose,
			LivenessTimeout: time.Second,
			Checkpoint:      stack.NDT,
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
