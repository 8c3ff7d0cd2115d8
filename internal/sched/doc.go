// Package sched is the critical-path deadline scheduler: the COLA-style
// optimization layer that turns the repo's measured tail pathologies
// (Finding 1's contention inflation, Finding 2's blown 100 ms budget)
// into something the executor can schedule against instead of merely
// reproduce.
//
// It has three parts. Analyze walks completed end-to-end lineage chains
// (trace.Chain) backwards from each terminal publication, attributing
// the makespan to the gating span at every step and measured slack to
// the spans that could have finished later — so per-node criticality
// comes from the drive that actually ran, not hand tuning. Policy turns
// a Criticality profile plus a Knobs setting into the executor's
// SchedPolicy: earliest-origin-deadline dispatch with criticality
// tie-breaks and a CPU admission cap whose slot frees at the CPU/GPU
// pipeline boundary. A knob setting's shed budget is one budget for
// every node, installed as the executor's ShedBudget. Tune runs a
// deterministic seeded search over the knob space (priorities on/off,
// shed budget, inflight cap, detector queue depth) and picks the
// candidate minimizing end-to-end p99, rejecting any that guts the
// sample population.
//
// Hook point and ordering. The scheduler lives at the executor's
// *dispatch* instant, downstream of every other layer: the fault
// injector perturbs at publish (PublishFilter), the integrity guard
// adjudicates at ingress (IngressFilter), the supervisor consumes
// dispatches for dead nodes (CallbackFilter) — and only then does the
// scheduler decide which surviving (node, message) candidate runs next
// (Executor.Sched). A quarantined or crash-dropped frame is therefore
// never schedulable, and the scheduler never resurrects anything a
// layer above rejected.
//
// Ownership. The policy reads queue heads via Peek during the pick and
// keeps no message: popping and shedding stay inside the executor.
// Everything the policy consults is virtual-time state, so a
// scheduled run is bit-identical across host worker counts; with
// Executor.Sched nil the seed FIFO dispatch is preserved byte for byte.
package sched
