package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/faults"
	"repro/internal/hdmap"
	"repro/internal/testenv"
	"repro/internal/world"
)

// The transport-rewrite regression net: every built-in scenario, run
// with the guard and the supervisor enabled, must render a report whose
// bytes hash to the values recorded from the pre-rewrite (mutex queue,
// per-publish allocation) transport. The transport layer is allowed to
// change its mechanism — rings, pooling, refcounts — but not a single
// observable: stamp order, eviction choice, seq numbering, drop counts,
// quarantine counts, latency samples.
//
// Refresh (only legitimate when simulation semantics intentionally
// change): UPDATE_TRANSPORT_GOLDENS=1 go test -run TestTransportGoldenReports ./internal/scenario/

// transportGoldenDuration covers every builtin horizon (the latest
// fault window closes at 9 s; MinDuration adds 1 s of recovery).
const transportGoldenDuration = 10 * time.Second

const transportGoldenFile = "testdata/transport_goldens.txt"

// runTransportScenario executes one spec with guard and supervision
// forced on, through the same path Run takes: the clean leg from legs,
// then the faulted leg. scen and m are the environment the spec's world
// resolves to (the shared testenv for builtins; the cached environment
// of its own world for generated scenarios).
func runTransportScenario(t *testing.T, legs *cleanMemo, spec Spec, scen *world.Scenario, m *hdmap.Map) (*Result, *autoware.Stack) {
	t.Helper()
	spec.Guard = true
	spec.Supervise = true
	res, faulted, err := runWith(context.Background(), legs, scen, m, spec, autoware.DetectorSSD300, transportGoldenDuration)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return res, faulted
}

// sensorPublications runs the stock stack fault-free over the goldens'
// drive and returns how many frames each sensor topic published. With
// no filter on the path every frame is accepted, so that is each topic's
// TopicStats.Messages.
func sensorPublications(t *testing.T) map[string]uint64 {
	t.Helper()
	st, err := buildStack(testenv.Scenario(), testenv.Map(), autoware.DetectorSSD300, false, 0, world.DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	st.Run(transportGoldenDuration)
	out := map[string]uint64{}
	for _, ts := range st.Bus.TopicStats() {
		out[ts.Topic] = ts.Messages
	}
	return out
}

// checkIngress balances the ingress half of frame conservation on each
// sensor topic of a faulted run: every frame the sensors published,
// plus every copy the injector added (dup and burst events), was
// accepted onto the bus (TopicStats.Messages), quarantined by the guard
// (the trace's integrity events) or dropped by the injector (its drop
// events). published holds the fault-free run's per-topic counts.
func checkIngress(t *testing.T, res *Result, published map[string]uint64) {
	t.Helper()
	for _, topic := range []string{"/points_raw", "/image_raw"} {
		var accepted uint64
		for _, ts := range res.Topics {
			if ts.Topic == topic {
				accepted = ts.Messages
			}
		}
		quarantined := 0
		for _, ev := range res.Integrity {
			if ev.Topic == topic {
				quarantined += ev.Count
			}
		}
		dropped := eventCount(res, faults.KindDrop, topic)
		added := eventCount(res, faults.KindDup, topic) + eventCount(res, faults.KindBurst, topic)
		if in, out := accepted+uint64(quarantined+dropped), published[topic]+uint64(added); in != out || out == 0 {
			t.Errorf("%s %s: accepted %d + quarantined %d + dropped %d = %d, want published %d + added %d = %d",
				res.Spec.Name, topic, accepted, quarantined, dropped, in, published[topic], added, out)
		}
	}
}

func TestTransportGoldenReports(t *testing.T) {
	t.Parallel()
	published := sensorPublications(t)
	var got bytes.Buffer
	for _, spec := range builtins() {
		res, _ := runTransportScenario(t, &cleanLegs, spec, testenv.Scenario(), testenv.Map())
		checkIngress(t, res, published)
		var rep bytes.Buffer
		res.WriteReport(&rep)
		fmt.Fprintf(&got, "%-14s sha256=%x\n", spec.Name, sha256.Sum256(rep.Bytes()))
	}

	// The pinned search winners run over their own generated worlds:
	// each drives its world's environment, so its clean leg is its own, then
	// hashes the same side-by-side report. Their lines append after the
	// builtins, so pinning a new worst case never perturbs the
	// pre-existing golden prefix.
	generated, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range generated {
		scen, m, err := autoware.Environment(*spec.World)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		res, _ := runTransportScenario(t, &cleanLegs, spec, scen, m)
		var rep bytes.Buffer
		res.WriteReport(&rep)
		fmt.Fprintf(&got, "%-14s sha256=%x\n", spec.Name, sha256.Sum256(rep.Bytes()))
		// A pinned search winner earned its place by breaking the
		// end-to-end budget; if the violation ever heals on its own, the
		// pin is stale and the search should be re-run.
		worst := 0.0
		for _, p := range res.Paths {
			if p.Faulted.Count > 0 && p.Faulted.P99 > worst {
				worst = p.Faulted.P99
			}
		}
		if worst <= e2eBudgetMS {
			t.Errorf("%s: pinned violation healed: worst faulted p99 %.2f ms within the %.0f ms budget",
				spec.Name, worst, e2eBudgetMS)
		}
	}

	if os.Getenv("UPDATE_TRANSPORT_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transportGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s:\n%s", transportGoldenFile, got.String())
		return
	}

	want, err := os.ReadFile(transportGoldenFile)
	if err != nil {
		t.Fatalf("missing goldens (run with UPDATE_TRANSPORT_GOLDENS=1 to record): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n"))
	gotLines := bytes.Split(bytes.TrimRight(got.Bytes(), "\n"), []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = string(wantLines[i])
		}
		if i < len(gotLines) {
			g = string(gotLines[i])
		}
		if w != g {
			t.Errorf("report hash diverged from pre-rewrite transport:\n  want %s\n  got  %s", w, g)
		}
	}
}
