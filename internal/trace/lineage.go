package trace

import (
	"time"

	"repro/internal/platform"
)

// Span is one recorded callback on a completed lineage chain: which
// node ran, when its input arrived, when it started (the gap is queue
// wait) and when its outputs were ready. Parents index the spans whose
// outputs this span consumed — the triggering input first, then any
// fused cache inputs — so a chain is a DAG with fan-in at fusion-style
// nodes and a single terminal span at the end.
type Span struct {
	Node                       string
	Arrived, Started, Finished time.Duration
	// Parents are indices into the owning Chain's Spans slice. Parents
	// always precede their children (the slice is topologically
	// ordered); an empty list means a sensor publication fed the span
	// directly.
	Parents []int
}

// Duration is the span's share of chain wall time: queue wait plus
// compute plus offload, from input arrival to outputs ready.
func (s Span) Duration() time.Duration { return s.Finished - s.Arrived }

// Chain is one completed end-to-end computation chain: every recorded
// callback reachable backwards from the terminal publication, plus the
// sensor origin that opened the path. The scheduler's critical-path
// analysis (internal/sched) walks these backwards to find which nodes
// carried the makespan and how much slack the others had.
type Chain struct {
	// Path names the PathSpec this chain closed.
	Path string
	// OriginTopic/OriginStamp identify the sensor frame that opened the
	// chain; Terminal is the closing publication instant. The chain's
	// makespan is Terminal - OriginStamp.
	OriginTopic string
	OriginStamp time.Duration
	Terminal    time.Duration
	// Spans is topologically ordered (parents before children); the
	// last span produced the terminal publication.
	Spans []Span
}

// Makespan is the chain's end-to-end latency.
func (c Chain) Makespan() time.Duration { return c.Terminal - c.OriginStamp }

type prodKey struct {
	topic string
	stamp time.Duration
}

type chainSpan struct {
	node                       string
	arrived, started, finished time.Duration
	parents                    []int // global span indices
}

// ChainLog reconstructs end-to-end lineage chains from the executor's
// Done events: every completed callback becomes a span, keyed as a
// producer by (output topic, finish stamp) so the callback that later
// consumes that publication links back to it. When a span publishes a
// path's terminal topic with the path's origin in its lineage, the
// chain closes and the backward-reachable spans are captured as a
// Chain.
//
// The log is an observer: it allocates host memory but never touches
// virtual time, so attaching it cannot change a single simulated
// sample. Spans accumulate for the whole run (a 60 s drive records a
// few thousand), which is the price of being able to walk arbitrary
// fan-in lineage after the fact.
type ChainLog struct {
	paths     []PathSpec
	spans     []chainSpan
	producers map[prodKey]int
	chains    []Chain

	// Warmup discards chains closing before this virtual time (pipeline
	// fill), mirroring Recorder.Warmup. Spans are still recorded — a
	// post-warmup chain may reach back into the warmup window.
	Warmup time.Duration
}

// NewChainLog creates an empty log closing chains on the given paths.
func NewChainLog(paths []PathSpec) *ChainLog {
	return &ChainLog{
		paths:     paths,
		producers: make(map[prodKey]int),
	}
}

// Attach subscribes the log to an executor's Done events.
func (l *ChainLog) Attach(ex *platform.Executor) {
	ex.Observe(func(ev platform.Event) {
		if ev.Kind == platform.Done {
			l.OnDone(ev.Done)
		}
	})
}

// OnDone records one completed callback as a span, registers it as the
// producer of its publications, and closes any path chains the
// publication terminates.
func (l *ChainLog) OnDone(d platform.DoneInfo) {
	idx := len(l.spans)
	sp := chainSpan{
		node:     d.Node,
		arrived:  d.Arrived,
		started:  d.Started,
		finished: d.Finished,
	}
	if p, ok := l.producers[prodKey{d.Input.Topic, d.Input.Header.Stamp}]; ok {
		sp.parents = append(sp.parents, p)
	}
	for _, f := range d.FusedInputs {
		if f == nil {
			continue
		}
		if p, ok := l.producers[prodKey{f.Topic, f.Header.Stamp}]; ok && !containsInt(sp.parents, p) {
			sp.parents = append(sp.parents, p)
		}
	}
	l.spans = append(l.spans, sp)
	for _, topic := range d.Published {
		// Publications are stamped with the finish instant; a later
		// duplicate stamp (dup faults) overwrites, keeping the newest.
		l.producers[prodKey{topic, d.Finished}] = idx
	}
	if d.Finished < l.Warmup {
		return
	}
	for _, p := range l.paths {
		if !containsString(d.Published, p.Terminal) {
			continue
		}
		stamp, ok := originStamp(d, p.Origin)
		if !ok {
			continue
		}
		l.chains = append(l.chains, l.capture(p.Name, p.Origin, stamp, idx, d.Finished))
	}
}

// capture extracts the backward-reachable subgraph of the terminal span
// as a self-contained Chain with local, topologically ordered indices.
func (l *ChainLog) capture(path, originTopic string, originStamp time.Duration, terminal int, at time.Duration) Chain {
	// Backward reachability over global indices. Parents always have
	// smaller indices than children (they finished earlier), so a
	// descending scan from the terminal visits each span after all its
	// children.
	reach := map[int]bool{terminal: true}
	order := []int{terminal}
	for i := 0; i < len(order); i++ {
		for _, p := range l.spans[order[i]].parents {
			if !reach[p] {
				reach[p] = true
				order = append(order, p)
			}
		}
	}
	// Ascending global order = topological order.
	sortInts(order)
	local := make(map[int]int, len(order))
	for li, gi := range order {
		local[gi] = li
	}
	spans := make([]Span, len(order))
	for li, gi := range order {
		g := l.spans[gi]
		sp := Span{Node: g.node, Arrived: g.arrived, Started: g.started, Finished: g.finished}
		for _, p := range g.parents {
			if lp, ok := local[p]; ok {
				sp.Parents = append(sp.Parents, lp)
			}
		}
		spans[li] = sp
	}
	return Chain{
		Path:        path,
		OriginTopic: originTopic,
		OriginStamp: originStamp,
		Terminal:    at,
		Spans:       spans,
	}
}

// Chains returns the captured chains in completion order. The slice is
// shared; callers must not mutate it.
func (l *ChainLog) Chains() []Chain { return l.chains }

// originStamp finds the earliest lineage stamp for the origin topic
// across the triggering input and fused inputs — the same merge rule
// the executor applies to output lineage.
func originStamp(d platform.DoneInfo, topic string) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, o := range d.Input.Header.Origins {
		if o.Topic == topic && (!found || o.Stamp < best) {
			best, found = o.Stamp, true
		}
	}
	for _, f := range d.FusedInputs {
		if f == nil {
			continue
		}
		for _, o := range f.Header.Origins {
			if o.Topic == topic && (!found || o.Stamp < best) {
				best, found = o.Stamp, true
			}
		}
	}
	return best, found
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// sortInts is a tiny insertion sort (chains are short; avoids pulling
// sort into the hot observer path for a handful of elements).
func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
