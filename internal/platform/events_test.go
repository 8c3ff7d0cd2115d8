package platform

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/ros"
)

// seenEvent is an observer's copy of one event, reduced to what the
// checks need.
type seenEvent struct {
	kind     EventKind
	topic    string
	stamp    time.Duration
	now      time.Duration
	payload  any
	origins  []ros.Origin
	cause    string
	node     string
	finished time.Duration
}

// TestExecutorEvents pins the observer stream's contract: one Published
// per accepted publication (not per subscription, not for a quarantined
// frame) with the frame's header stamp, payload and origins; one per
// duplicate copy; Published on a topic nobody subscribes to; one
// Quarantined with its cause; one Done per callback carrying that
// callback's DoneInfo; and every observer seeing every event, in
// registration order.
func TestExecutorEvents(t *testing.T) {
	ex, sim := newTestExecutor()
	outs := map[string]string{"a": "/a", "b": "/b", "c": "/c"}
	for _, name := range []string{"a", "b", "c"} {
		ex.AddNode(&echoNode{name: name, in: "/in", out: outs[name], ops: 1.55e6}, NodeOptions{})
	}
	ex.PublishFilter = func(topic string, payload any, now time.Duration) PublishVerdict {
		if topic == "/in" && payload == "dup" {
			return PublishVerdict{Copies: 2}
		}
		return PublishVerdict{}
	}
	ex.IngressFilter = func(topic string, stamp time.Duration, payload any, now time.Duration) IngressVerdict {
		if payload == "bad" {
			return IngressVerdict{Quarantine: true, Cause: "test-cause"}
		}
		return IngressVerdict{}
	}

	var calls []int // observer ids, in call order
	var seen [2][]seenEvent
	for id := range seen {
		ex.Observe(func(ev Event) {
			calls = append(calls, id)
			s := seenEvent{
				kind: ev.Kind, topic: ev.Topic, stamp: ev.Stamp, now: sim.Now(),
				payload: ev.Payload, origins: append([]ros.Origin(nil), ev.Origins...), cause: ev.Cause,
			}
			if ev.Kind == Done {
				d := ev.Done
				s.node, s.finished = d.Node, d.Finished
				if d.Input == nil || d.Input.Topic != "/in" || d.Arrived != d.Input.Header.Stamp ||
					d.Started < d.Arrived || d.CPUDone < d.Started || d.Finished != sim.Now() ||
					d.Outputs != 1 || !reflect.DeepEqual(d.Published, []string{outs[d.Node]}) ||
					d.Work.IntOps != 1.55e6 {
					t.Errorf("Done for %s does not describe its callback: %+v", d.Node, d)
				}
				s.payload = d.Input.Payload
			}
			seen[id] = append(seen[id], s)
		})
	}

	sim.Schedule(0, func() { ex.Publish("/in", "p0") })
	sim.Schedule(100*time.Millisecond, func() { ex.Publish("/in", "dup") })
	sim.Schedule(200*time.Millisecond, func() { ex.Publish("/in", "bad") })
	sim.Schedule(300*time.Millisecond, func() { ex.Publish("/nobody", "x") })
	sim.Run(time.Second)

	if !reflect.DeepEqual(seen[0], seen[1]) {
		t.Fatalf("observers saw different streams:\n%+v\n%+v", seen[0], seen[1])
	}
	for i, id := range calls {
		if id != i%2 {
			t.Fatalf("observer call order %v, want registration order per event", calls)
		}
	}

	count := map[[2]any]int{}                // (kind, topic) -> events
	finished := map[string][]time.Duration{} // output topic -> callback finishes
	for _, s := range seen[0] {
		count[[2]any{s.kind, s.topic}]++
		switch s.kind {
		case Done:
			if s.payload == "bad" {
				t.Errorf("node %s ran on a quarantined frame", s.node)
			}
			finished[outs[s.node]] = append(finished[outs[s.node]], s.finished)
		case Quarantined:
			if s.payload != "bad" || s.cause != "test-cause" || s.stamp != 200*time.Millisecond {
				t.Errorf("quarantine event = %+v", s)
			}
		case Published:
			if s.payload == "bad" {
				t.Errorf("quarantined frame published: %+v", s)
			}
			if s.now <= s.stamp {
				t.Errorf("%s: stamp %v is not the header stamp (published at %v)", s.topic, s.stamp, s.now)
			}
		}
	}
	want := map[[2]any]int{
		{Published, "/in"}:     4, // p0, dup and its two copies
		{Quarantined, "/in"}:   1,
		{Published, "/nobody"}: 1,
		// Each node runs p0 and two dup frames: its depth-2 queue evicts
		// the first of the three that arrive together.
		{Done, ""}:        9,
		{Published, "/a"}: 3, {Published, "/b"}: 3, {Published, "/c"}: 3,
	}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("event counts = %v, want %v", count, want)
	}

	// Payloads, stamps and origins. A node's k-th output is stamped with
	// its k-th callback's finish and carries its input's lineage.
	var inFrames []seenEvent
	outputs := map[string][]seenEvent{}
	for _, s := range seen[0] {
		switch {
		case s.kind != Published:
		case s.topic == "/in":
			inFrames = append(inFrames, s)
		default:
			outputs[s.topic] = append(outputs[s.topic], s)
		}
	}
	wantIn := []struct {
		payload any
		stamp   time.Duration
	}{{"p0", 0}, {"dup", 100 * time.Millisecond}, {"dup", 100 * time.Millisecond}, {"dup", 100 * time.Millisecond}}
	for i, s := range inFrames {
		origins := []ros.Origin{{Topic: "/in", Stamp: wantIn[i].stamp}}
		if s.payload != wantIn[i].payload || s.stamp != wantIn[i].stamp || !reflect.DeepEqual(s.origins, origins) {
			t.Errorf("/in frame %d = %+v, want payload %v stamp %v origins %v", i, s, wantIn[i].payload, wantIn[i].stamp, origins)
		}
	}
	for _, topic := range []string{"/a", "/b", "/c"} {
		for k, s := range outputs[topic] {
			in := wantIn[k]
			origins := []ros.Origin{{Topic: "/in", Stamp: in.stamp}}
			if s.payload != in.payload || s.stamp != finished[topic][k] || !reflect.DeepEqual(s.origins, origins) {
				t.Errorf("%s output %d = %+v, want payload %v stamp %v origins %v", topic, k, s, in.payload, finished[topic][k], origins)
			}
		}
	}
	if s := outputs["/nobody"]; len(s) != 1 || s[0].payload != "x" || s[0].stamp != 300*time.Millisecond {
		t.Errorf("/nobody frames = %+v", s)
	}
}

// TestExecutorObserveAllocs pins that the event stream allocates
// nothing of its own: on a two-node echo pipeline, one no-op observer
// adds exactly the two callbacks' DoneInfo.Published slices to each
// publish→callback cycle.
func TestExecutorObserveAllocs(t *testing.T) {
	perCycle := func(observe bool) float64 {
		ex, sim := newTestExecutor()
		ex.AddNode(&echoNode{name: "a", in: "/in", out: "/mid", ops: 1.55e6}, NodeOptions{})
		ex.AddNode(&echoNode{name: "b", in: "/mid", out: "/out", ops: 1.55e6}, NodeOptions{})
		if observe {
			ex.Observe(func(Event) {})
		}
		return testing.AllocsPerRun(200, func() {
			ex.Publish("/in", 1)
			sim.Run(sim.Now() + 100*time.Millisecond)
		})
	}
	bare, observed := perCycle(false), perCycle(true)
	t.Logf("allocs per cycle: %v bare, %v with one no-op observer", bare, observed)
	if observed-bare != 2 {
		t.Errorf("observing added %v allocs per cycle (%v -> %v), want the 2 DoneInfo.Published slices", observed-bare, bare, observed)
	}
}
