package trace

import (
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/work"
)

func done(node string, arrived, started, cpuDone, finished time.Duration, outputs int) platform.DoneInfo {
	return platform.DoneInfo{
		Node:    node,
		Input:   &ros.Message{Header: ros.Header{Stamp: arrived}},
		Arrived: arrived, Started: started, CPUDone: cpuDone, Finished: finished,
		Outputs: outputs,
		Work:    work.Work{IntOps: 100},
	}
}

func TestRecorderNodeLatency(t *testing.T) {
	r := NewRecorder(StandardPaths())
	r.OnDone(done("a", 0, time.Millisecond, 6*time.Millisecond, 10*time.Millisecond, 1))
	r.OnDone(done("a", 0, time.Millisecond, 11*time.Millisecond, 20*time.Millisecond, 1))
	s := r.NodeLatency("a")
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 15 { // (10 + 20)/2 ms
		t.Errorf("mean = %v", s.Mean)
	}
	if len(r.NodeNames()) != 1 || r.NodeNames()[0] != "a" {
		t.Errorf("names = %v", r.NodeNames())
	}
}

func TestRecorderSkipsZeroOutputCallbacksForLatency(t *testing.T) {
	r := NewRecorder(nil)
	r.OnDone(done("n", 0, 0, time.Millisecond, time.Millisecond, 0))
	if r.NodeLatency("n").Count != 0 {
		t.Error("cache-update callback should not enter the latency distribution")
	}
	// But phase accounting still happens.
	if r.CPUShare("n") != 1 {
		t.Errorf("cpu share = %v", r.CPUShare("n"))
	}
}

func TestRecorderWarmupFilter(t *testing.T) {
	r := NewRecorder(StandardPaths())
	r.Warmup = time.Second
	r.OnDone(done("a", 0, 0, 0, 500*time.Millisecond, 1))
	r.OnDone(done("a", time.Second, time.Second, time.Second, 1500*time.Millisecond, 1))
	if got := r.NodeLatency("a").Count; got != 1 {
		t.Errorf("warmup not applied: count = %d", got)
	}
}

func TestRecorderCPUGPUShares(t *testing.T) {
	r := NewRecorder(nil)
	// 6ms CPU phase, 4ms GPU phase.
	r.OnDone(done("v", 0, 0, 6*time.Millisecond, 10*time.Millisecond, 1))
	if got := r.CPUShare("v"); got != 0.6 {
		t.Errorf("cpu share = %v", got)
	}
	if got := r.GPUShare("v"); got != 0.4 {
		t.Errorf("gpu share = %v", got)
	}
	if r.CPUShare("missing") != 0 || r.GPUShare("missing") != 0 {
		t.Error("missing node shares should be zero")
	}
}

func TestRecorderPathTracing(t *testing.T) {
	r := NewRecorder(StandardPaths())
	// A costmap publication tracing back to both sensors.
	r.OnPublish("/costmap/objects", ros.Header{
		Stamp: 200 * time.Millisecond,
		Origins: []ros.Origin{
			{Topic: "/points_raw", Stamp: 50 * time.Millisecond},
			{Topic: "/image_raw", Stamp: 80 * time.Millisecond},
		},
	})
	cluster := r.PathLatency("costmap_cluster_obj")
	visionPath := r.PathLatency("costmap_vision_obj")
	if cluster.Count != 1 || cluster.Mean != 150 {
		t.Errorf("cluster path = %+v", cluster)
	}
	if visionPath.Count != 1 || visionPath.Mean != 120 {
		t.Errorf("vision path = %+v", visionPath)
	}
	// Unrelated topic ignored.
	r.OnPublish("/other", ros.Header{Stamp: time.Second, Origins: []ros.Origin{{Topic: "/points_raw"}}})
	if r.PathLatency("costmap_cluster_obj").Count != 1 {
		t.Error("unrelated topic leaked into path")
	}
}

func TestRecorderEndToEndPicksWorstPath(t *testing.T) {
	r := NewRecorder(StandardPaths())
	r.OnPublish("/current_pose", ros.Header{
		Stamp:   100 * time.Millisecond,
		Origins: []ros.Origin{{Topic: "/points_raw", Stamp: 70 * time.Millisecond}},
	})
	r.OnPublish("/costmap/objects", ros.Header{
		Stamp:   300 * time.Millisecond,
		Origins: []ros.Origin{{Topic: "/image_raw", Stamp: 100 * time.Millisecond}},
	})
	name, sum := r.EndToEnd()
	if name != "costmap_vision_obj" {
		t.Errorf("worst path = %s", name)
	}
	if sum.Mean != 200 {
		t.Errorf("worst mean = %v", sum.Mean)
	}
}

func TestRecorderEndToEndEmpty(t *testing.T) {
	r := NewRecorder(StandardPaths())
	name, sum := r.EndToEnd()
	if name != "" || sum.Count != 0 {
		t.Errorf("empty end-to-end = %q %+v", name, sum)
	}
}

func TestRecorderOutageLifecycle(t *testing.T) {
	r := NewRecorder(nil)
	r.OnOutageOpen("a", "crash", time.Second)
	r.OnOutageOpen("a", "stale-output", 2*time.Second) // ignored: already open
	r.OnOutageRestart("a")
	r.OnOutageFrameLost("a")
	r.OnOutageFrameLost("a")
	r.OnOutageRestart("a")
	r.OnOutageClose("a", 3*time.Second, true, 700*time.Millisecond, true)

	outs := r.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages = %+v", outs)
	}
	o := outs[0]
	if o.Node != "a" || o.Cause != "crash" || o.Detected != time.Second {
		t.Errorf("outage = %+v", o)
	}
	if o.Recovered != 3*time.Second || o.Restarts != 2 || o.FramesLost != 2 {
		t.Errorf("outage = %+v", o)
	}
	if !o.Restored || o.CheckpointAge != 700*time.Millisecond || !o.Recheckpointed {
		t.Errorf("outage = %+v", o)
	}

	// A second outage for the same node opens independently and stays
	// open (zero Recovered) until closed.
	r.OnOutageOpen("a", "stale-output", 5*time.Second)
	outs = r.Outages()
	if len(outs) != 2 || outs[1].Cause != "stale-output" || outs[1].Recovered != 0 {
		t.Errorf("outages = %+v", outs)
	}

	// Hooks on nodes without an open outage are no-ops.
	r.OnOutageRestart("missing")
	r.OnOutageFrameLost("missing")
	r.OnOutageClose("missing", time.Second, false, 0, false)
	if got := r.Outages(); len(got) != 2 {
		t.Errorf("outages = %+v", got)
	}
}

func TestStandardPathsMatchTableIV(t *testing.T) {
	paths := StandardPaths()
	if len(paths) != 4 {
		t.Fatalf("paths = %d", len(paths))
	}
	byName := map[string]PathSpec{}
	for _, p := range paths {
		byName[p.Name] = p
	}
	if byName["localization"].Origin != "/points_raw" {
		t.Error("localization origin")
	}
	if byName["costmap_vision_obj"].Origin != "/image_raw" {
		t.Error("vision path origin")
	}
	if byName["costmap_cluster_obj"].Terminal != byName["costmap_vision_obj"].Terminal {
		t.Error("both object paths should share the terminal costmap topic")
	}
}

func TestRecorderIntegrityAggregation(t *testing.T) {
	r := NewRecorder(nil)
	r.OnQuarantine("/points_raw", "malformed-payload", "ingress", 5*time.Second)
	r.OnQuarantine("/points_raw", "malformed-payload", "ingress", 4*time.Second)
	r.OnQuarantine("/points_raw", "malformed-payload", "ingress", 6*time.Second)
	r.OnQuarantine("/points_raw", "duplicate-stamp", "ingress", 4500*time.Millisecond)
	r.OnQuarantine("/image_raw", "future-stamp", "ingress", 7*time.Second)

	evs := r.IntegrityEvents()
	if len(evs) != 3 {
		t.Fatalf("events = %+v", evs)
	}
	// Sorted by topic, then cause: /image_raw first, then /points_raw
	// duplicate before malformed.
	if evs[0].Topic != "/image_raw" || evs[0].Cause != "future-stamp" || evs[0].Count != 1 {
		t.Errorf("evs[0] = %+v", evs[0])
	}
	if evs[1].Topic != "/points_raw" || evs[1].Cause != "duplicate-stamp" {
		t.Errorf("evs[1] = %+v", evs[1])
	}
	m := evs[2]
	if m.Cause != "malformed-payload" || m.Point != "ingress" || m.Count != 3 {
		t.Errorf("evs[2] = %+v", m)
	}
	// The window widens min/max-wise regardless of arrival order.
	if m.First != 4*time.Second || m.Last != 6*time.Second {
		t.Errorf("window = [%v, %v], want [4s, 6s]", m.First, m.Last)
	}
}

// TestRecorderClampsNegativeLatency pins the skew hardening: a frame
// whose arrival stamp runs ahead of its completion (a future-stamped
// sensor clock) must clamp to zero latency, not poison the
// distribution with a negative sample.
func TestRecorderClampsNegativeLatency(t *testing.T) {
	r := NewRecorder(StandardPaths())
	// Arrived "later" than it finished: stamp from a fast clock.
	r.OnDone(done("n", 2*time.Second, time.Second, time.Second, 1500*time.Millisecond, 1))
	s := r.NodeLatency("n")
	if s.Count != 1 || s.Min < 0 || s.Max != 0 {
		t.Errorf("latency summary = %+v, want one clamped zero sample", s)
	}

	// Same for lineage spans: an origin stamped after the terminal
	// publication must not produce a negative path sample.
	r2 := NewRecorder([]PathSpec{{Name: "p", Origin: "/points_raw", Terminal: "/out"}})
	r2.OnPublish("/out", ros.Header{
		Stamp:   time.Second,
		Origins: []ros.Origin{{Topic: "/points_raw", Stamp: 3 * time.Second}},
	})
	p := r2.PathLatency("p")
	if p.Count != 1 || p.Min < 0 || p.Max != 0 {
		t.Errorf("path summary = %+v, want one clamped zero sample", p)
	}
}
