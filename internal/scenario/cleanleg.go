package scenario

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/sched"
	"repro/internal/world"
)

// cleanLegMemoSize bounds the clean-leg memo. Each entry pins the world
// and HD map it is keyed on, which autoware.Environment keeps live
// anyway: one world per params line, one 3.48 MB map per city and ego
// speed. Fleet traffic shares a handful of worlds.
const cleanLegMemoSize = 8

// cleanLeg is what a drive's fault-free leg contributes to a report. It
// is read-only once computed, so concurrent faulted legs share one.
type cleanLeg struct {
	// nodes holds each recorded node's latency summary; a node the leg
	// never recorded reads as the zero summary, as NodeLatency does.
	nodes map[string]mathx.Summary
	// paths holds the Baseline half of each path row, in PathNames
	// registration order.
	paths []PathStat
	// crit is the criticality profile of the leg's lineage chains.
	crit *sched.Criticality
}

// runClean runs one drive's fault-free leg: the stock stack with a
// lineage chain log attached. The chain log only observes, so the
// summaries are the same with or without it.
func runClean(ctx context.Context, scen *world.Scenario, m *hdmap.Map, det autoware.Detector, duration time.Duration, wcfg world.ScenarioConfig) (*cleanLeg, error) {
	st, err := buildStack(scen, m, det, false, 0, wcfg)
	if err != nil {
		return nil, err
	}
	chains := avstack.AttachChainLog(st)
	if err := st.RunContext(ctx, duration); err != nil {
		return nil, fmt.Errorf("scenario: baseline leg: %w", err)
	}
	leg := &cleanLeg{nodes: make(map[string]mathx.Summary), crit: sched.Analyze(chains.Chains())}
	for _, n := range st.Recorder.NodeNames() {
		leg.nodes[n] = st.Recorder.NodeLatency(n)
	}
	for _, p := range st.Recorder.PathNames() {
		leg.paths = append(leg.paths, PathStat{Path: p, Baseline: st.Recorder.PathLatency(p)})
	}
	return leg, nil
}

// cleanKey is every input a clean leg depends on. The environment is
// keyed by identity: worlds and maps are read-only after construction,
// and the memo holds the pointers, so an address is never reused while
// it is a key. params is the canonical world config, whose weather
// profile degrades the sensors the stack is built with.
type cleanKey struct {
	scen     *world.Scenario
	m        *hdmap.Map
	det      autoware.Detector
	duration time.Duration
	params   string
}

func newCleanKey(scen *world.Scenario, m *hdmap.Map, det autoware.Detector, duration time.Duration, wcfg world.ScenarioConfig) cleanKey {
	return cleanKey{scen: scen, m: m, det: det, duration: duration, params: world.MarshalParams(wcfg)}
}

// cleanMemo shares clean legs between runs over one environment. The
// zero value is ready to use. cleanLegs is the process-wide instance;
// a fresh instance gives cold legs.
type cleanMemo struct {
	mu      sync.Mutex
	entries map[cleanKey]*cleanEntry
	order   []cleanKey // stored keys, oldest first
	hits    int        // lookups served by a stored leg
	waits   int        // lookups that waited on a leg in flight
}

// cleanEntry is one leg, stored or in flight. done closes when the
// computing call returns; leg stays nil if that call failed.
type cleanEntry struct {
	done chan struct{}
	leg  *cleanLeg
}

var cleanLegs cleanMemo

// clean returns the fault-free leg of a drive, running it only if the
// memo has not stored it.
func (c *cleanMemo) clean(ctx context.Context, scen *world.Scenario, m *hdmap.Map, det autoware.Detector, duration time.Duration, wcfg world.ScenarioConfig) (*cleanLeg, error) {
	return c.do(ctx, newCleanKey(scen, m, det, duration, wcfg), func(ctx context.Context) (*cleanLeg, error) {
		return runClean(ctx, scen, m, det, duration, wcfg)
	})
}

// do returns the stored leg for key, or computes it with run. Concurrent
// misses on one key run it once: the others wait, each under its own
// ctx. A failed, cancelled or panicking run stores nothing and releases
// the waiters, and the next of them runs the leg itself.
func (c *cleanMemo) do(ctx context.Context, key cleanKey, run func(context.Context) (*cleanLeg, error)) (*cleanLeg, error) {
	c.mu.Lock()
	for {
		e, ok := c.entries[key]
		if !ok {
			break
		}
		if e.leg != nil {
			c.hits++
			c.mu.Unlock()
			return e.leg, nil
		}
		c.waits++
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("scenario: waiting for baseline leg: %w: %w", autoware.ErrCancelled, ctx.Err())
		}
		c.mu.Lock()
	}
	if c.entries == nil {
		c.entries = make(map[cleanKey]*cleanEntry)
	}
	e := &cleanEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	var leg *cleanLeg
	defer func() {
		c.mu.Lock()
		if leg == nil {
			delete(c.entries, key)
		} else {
			e.leg = leg
			c.order = append(c.order, key)
			for len(c.order) > cleanLegMemoSize {
				delete(c.entries, c.order[0])
				c.order = c.order[1:]
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	leg, err := run(ctx)
	if err != nil {
		leg = nil
	}
	return leg, err
}
