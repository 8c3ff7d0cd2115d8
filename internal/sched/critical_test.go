package sched

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ros"
	"repro/internal/trace"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

// span is a test shorthand: arrived == started (no queue wait) unless a
// test builds the Span directly.
func span(node string, arrived, finished int, parents ...int) trace.Span {
	return trace.Span{Node: node, Arrived: ms(arrived), Started: ms(arrived), Finished: ms(finished), Parents: parents}
}

func TestAnalyzeLineageGraphs(t *testing.T) {
	cases := []struct {
		name      string
		chain     trace.Chain
		wantOn    []string                 // nodes on the critical walk
		wantSlack map[string]time.Duration // expected MinSlack for off-path nodes
	}{
		{
			// A fans out to B (slow) and C (fast); D fuses both. The
			// critical walk is D→B→A, and C has 20 ms of slack.
			name: "diamond",
			chain: trace.Chain{
				Path: "p", OriginStamp: 0, Terminal: ms(70),
				Spans: []trace.Span{
					span("A", 0, 10),
					span("B", 10, 50, 0),
					span("C", 10, 30, 0),
					span("D", 50, 70, 1, 2),
				},
			},
			wantOn:    []string{"A", "B", "D"},
			wantSlack: map[string]time.Duration{"C": ms(20)},
		},
		{
			// Two sensor roots feed a fusion node directly; the later
			// root gates, the earlier one has the difference as slack.
			name: "fan-in",
			chain: trace.Chain{
				Path: "p", OriginStamp: 0, Terminal: ms(60),
				Spans: []trace.Span{
					span("lidar", 0, 25),
					span("camera", 0, 40),
					span("fusion", 40, 60, 0, 1),
				},
			},
			wantOn:    []string{"camera", "fusion"},
			wantSlack: map[string]time.Duration{"lidar": ms(15)},
		},
		{
			// A node whose input sat queued (Started >> Arrived) still
			// charges its full arrival-to-finish window to the path:
			// queue wait is latency the schedule can reclaim.
			name: "stalled-node",
			chain: trace.Chain{
				Path: "p", OriginStamp: 0, Terminal: ms(100),
				Spans: []trace.Span{
					span("A", 0, 10),
					{Node: "stalled", Arrived: ms(10), Started: ms(80), Finished: ms(90), Parents: []int{0}},
					span("sink", 90, 100, 1),
				},
			},
			wantOn:    []string{"A", "stalled", "sink"},
			wantSlack: map[string]time.Duration{},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Analyze([]trace.Chain{tc.chain})
			if c.Chains() != 1 {
				t.Fatalf("Chains() = %d, want 1", c.Chains())
			}
			on := make(map[string]bool, len(tc.wantOn))
			for _, n := range tc.wantOn {
				on[n] = true
				if c.Priority(n) <= 0 {
					t.Errorf("node %s: on critical path but Priority = %v", n, c.Priority(n))
				}
			}
			for _, nc := range c.Nodes() {
				if !on[nc.Node] && nc.OnPathCount != 0 {
					t.Errorf("node %s: off path but OnPathCount = %d", nc.Node, nc.OnPathCount)
				}
				if on[nc.Node] && nc.MinSlack != 0 {
					t.Errorf("node %s: on path but MinSlack = %v", nc.Node, nc.MinSlack)
				}
			}
			for n, want := range tc.wantSlack {
				if got := c.Slack(n); got != want {
					t.Errorf("node %s: MinSlack = %v, want %v", n, got, want)
				}
			}
			// Shares of on-path nodes must account for the whole makespan
			// when spans tile it exactly, as these fixtures do.
			var total float64
			for _, n := range tc.wantOn {
				total += c.Priority(n)
			}
			if total < 0.999 || total > 1.001 {
				t.Errorf("on-path shares sum to %v, want ~1", total)
			}
		})
	}
}

func TestAnalyzeSharesRankNodes(t *testing.T) {
	// The diamond's slow branch must outrank the fast one and everything
	// else — this is the property the executor's tie-break relies on.
	chain := trace.Chain{
		Path: "p", OriginStamp: 0, Terminal: ms(70),
		Spans: []trace.Span{
			span("A", 0, 10),
			span("B", 10, 50, 0),
			span("C", 10, 30, 0),
			span("D", 50, 70, 1, 2),
		},
	}
	c := Analyze([]trace.Chain{chain})
	nodes := c.Nodes()
	if len(nodes) == 0 || nodes[0].Node != "B" {
		t.Fatalf("top-ranked node = %+v, want B", nodes)
	}
	if c.Priority("B") <= c.Priority("D") || c.Priority("D") <= c.Priority("A") {
		t.Errorf("want share(B) > share(D) > share(A); got B=%v D=%v A=%v",
			c.Priority("B"), c.Priority("D"), c.Priority("A"))
	}
	if c.Priority("C") != 0 {
		t.Errorf("off-path C share = %v, want 0", c.Priority("C"))
	}
}

func TestAnalyzeEmptyAndMulti(t *testing.T) {
	c := Analyze(nil)
	if c.Chains() != 0 || c.Priority("anything") != 0 || len(c.Nodes()) != 0 {
		t.Fatalf("empty analysis not empty: %+v", c.Nodes())
	}
	// Accumulating the same chain twice doubles times but keeps shares.
	chain := trace.Chain{
		Path: "p", OriginStamp: 0, Terminal: ms(30),
		Spans: []trace.Span{span("A", 0, 10), span("B", 10, 30, 0)},
	}
	one := Analyze([]trace.Chain{chain})
	two := Analyze([]trace.Chain{chain, chain})
	if one.Priority("A") != two.Priority("A") || one.Priority("B") != two.Priority("B") {
		t.Errorf("shares changed with chain count: %v vs %v", one.Nodes(), two.Nodes())
	}
	if two.Nodes()[0].OnPathCount != 2 {
		t.Errorf("OnPathCount = %d, want 2", two.Nodes()[0].OnPathCount)
	}
}

func TestDefaultCandidatesDeterministic(t *testing.T) {
	a := DefaultCandidates(42, 3)
	b := DefaultCandidates(42, 3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if !a[0].Disabled {
		t.Fatalf("candidate 0 = %+v, want disabled baseline", a[0])
	}
	seen := map[string]bool{}
	for _, c := range a {
		if seen[c.Name] {
			t.Errorf("duplicate candidate name %q", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestTunePicksBestFeasible(t *testing.T) {
	cands := []Candidate{
		{Name: "baseline", Disabled: true},
		{Name: "shedder", Knobs: Knobs{ShedBudget: ms(50)}},
		{Name: "winner", Knobs: Knobs{UsePriorities: true}},
		{Name: "broken", Knobs: Knobs{MaxInflight: 1}},
	}
	evals := map[string]Eval{
		"baseline": {Path: "p", P50: 50, P99: 120, Samples: 100},
		"shedder":  {Path: "p", P50: 10, P99: 20, Samples: 10}, // great p99, gutted sample — infeasible
		"winner":   {Path: "p", P50: 45, P99: 90, Samples: 98},
	}
	best, outcomes, err := Tune(cands, 0.5, func(c Candidate) (Eval, error) {
		if c.Name == "broken" {
			return Eval{}, errors.New("boom")
		}
		return evals[c.Name], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cands[best].Name != "winner" {
		t.Fatalf("best = %s, want winner", cands[best].Name)
	}
	if outcomes[1].Feasible {
		t.Errorf("shedder marked feasible despite gutted samples")
	}
	if outcomes[3].Err == nil {
		t.Errorf("broken candidate has no error recorded")
	}

	// Degenerate search: nothing beats baseline → baseline wins.
	best, _, err = Tune(cands[:2], 0.5, func(c Candidate) (Eval, error) {
		return Eval{Path: "p", P50: 50, P99: 120, Samples: 100}, nil
	})
	if err != nil || best != 0 {
		t.Fatalf("best = %d err = %v, want baseline 0", best, err)
	}

	// A non-disabled first candidate is a programmer error.
	if _, _, err := Tune(cands[1:], 0, nil); err == nil {
		t.Fatal("Tune accepted a non-baseline first candidate")
	}
}

// TestWorstPath pins how the tuner scores a finished run: the highest
// p99 wins, an exact tie goes to the earlier path name whatever the
// recorder's path order, and Samples counts every path.
func TestWorstPath(t *testing.T) {
	rec := trace.NewRecorder([]trace.PathSpec{
		{Name: "b", Origin: "/o", Terminal: "/b"},
		{Name: "a", Origin: "/o", Terminal: "/a"},
		{Name: "fast", Origin: "/o", Terminal: "/fast"},
		{Name: "idle", Origin: "/o", Terminal: "/idle"},
	})
	for _, lat := range []int{20, 40, 60} {
		for topic, l := range map[string]int{"/b": lat, "/a": lat, "/fast": lat / 2} {
			rec.OnPublish(topic, ros.Header{Stamp: ms(1000 + l), Origins: []ros.Origin{{Topic: "/o", Stamp: ms(1000)}}})
		}
	}
	a := rec.PathLatency("a")
	want := Eval{Path: "a", P50: a.Median, P99: a.P99, Samples: 9}
	if got := WorstPath(rec); got != want {
		t.Errorf("WorstPath = %+v, want %+v", got, want)
	}
	if empty := WorstPath(trace.NewRecorder(nil)); empty != (Eval{}) {
		t.Errorf("WorstPath of a recorder without paths = %+v, want zero", empty)
	}
}

func TestPolicyKnobs(t *testing.T) {
	chain := trace.Chain{
		Path: "p", OriginStamp: 0, Terminal: ms(30),
		Spans: []trace.Span{span("A", 0, 10), span("B", 10, 30, 0)},
	}
	crit := Analyze([]trace.Chain{chain})

	p := NewPolicy(crit, Knobs{UsePriorities: true, MaxInflight: 3})
	if p.Priority("B") <= 0 {
		t.Errorf("priorities enabled but Priority(B) = %v", p.Priority("B"))
	}
	if p.MaxInflight() != 3 {
		t.Errorf("MaxInflight = %d, want 3", p.MaxInflight())
	}

	off := NewPolicy(crit, Knobs{})
	if off.Priority("B") != 0 {
		t.Errorf("priorities disabled but Priority(B) = %v", off.Priority("B"))
	}
	if off.MaxInflight() != 0 {
		t.Errorf("zero knobs leaked: cap=%d", off.MaxInflight())
	}
	if nilCrit := NewPolicy(nil, Knobs{UsePriorities: true}); nilCrit.Priority("B") != 0 {
		t.Errorf("nil criticality but Priority(B) = %v", nilCrit.Priority("B"))
	}
}
