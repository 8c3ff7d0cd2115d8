// Package trace implements the measurement layer of the paper's
// methodology: per-node latency recording (queue wait + compute +
// offload, from input arrival to output ready) and end-to-end
// computation-path tracing through message header lineage — the
// "longest path" definition of perception latency (Fig. 4/6). Recorder
// and ChainLog are observers: each subscribes to the executor's event
// stream (platform.Executor.Observe) and never touches virtual time.
// Of the frame fates, the Recorder tallies quarantines (from the
// Quarantined events), supervised outages and degraded intervals;
// fault losses are the injector's events and queue evictions the bus's.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/mathx"
	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/work"
)

// PathSpec defines one computation path: a name, the sensor origin
// topic it starts at, and the terminal topic whose publication closes
// the path.
type PathSpec struct {
	Name     string
	Origin   string
	Terminal string
}

// StandardPaths are the four computation paths of Table IV.
func StandardPaths() []PathSpec {
	return []PathSpec{
		{Name: "localization", Origin: "/points_raw", Terminal: "/current_pose"},
		{Name: "costmap_points", Origin: "/points_raw", Terminal: "/costmap/points"},
		{Name: "costmap_vision_obj", Origin: "/image_raw", Terminal: "/costmap/objects"},
		{Name: "costmap_cluster_obj", Origin: "/points_raw", Terminal: "/costmap/objects"},
	}
}

// Recorder collects single-node latencies, CPU/GPU phase splits, and
// end-to-end path samples from the executor's Done and Published
// events, and quarantines from its Quarantined events: IntegrityEvents
// is the one quarantine tally. The supervisor and the watchdog report
// outages and degradations to it directly.
type Recorder struct {
	// nodeLatency[node] holds per-callback latencies in seconds.
	nodeLatency map[string][]float64
	// cpuSeconds/gpuSeconds accumulate per node phase time.
	cpuSeconds map[string]float64
	gpuSeconds map[string]float64
	workSum    map[string]work.Work

	paths   []PathSpec
	pathLat map[string][]float64

	// degraded holds closed and open degradation intervals in the order
	// they opened; openDegraded indexes the open one per node.
	degraded     []DegradedInterval
	openDegraded map[string]int

	// outages holds supervised node-down windows in the order they were
	// detected; openOutage indexes the open one per node.
	outages    []Outage
	openOutage map[string]int

	// integrity accumulates guard-quarantined frames keyed by
	// (topic, cause, point), so reports can distinguish
	// "dropped by the integrity guard" from dropped-by-queue/fault/shed.
	integrity map[integrityKey]*IntegrityEvent

	// Warmup discards samples before this virtual time (pipeline fill).
	Warmup time.Duration
}

// Outage is one supervised node-down window: from the supervisor
// detecting a crashed or silent node to the restart that brought it
// back. It carries the recovery metrics the chaos reports surface —
// restart attempts, frames lost while down, and how stale the restored
// checkpoint was.
type Outage struct {
	// Node is the supervised node that went down.
	Node string
	// Cause names the detection channel ("crash" for a missed dispatch,
	// "stale-output" for header-stamp liveness).
	Cause string
	// Detected is when the supervisor declared the node down; Recovered
	// is when a restarted instance completed its first callback (zero
	// while still down).
	Detected, Recovered time.Duration
	// Restarts counts restart attempts, including failed probes.
	Restarts int
	// FramesLost counts input messages consumed while the node was down.
	FramesLost int
	// Restored reports whether a checkpoint was restored on restart
	// (false means a cold restart that lost all state).
	Restored bool
	// CheckpointAge is how stale the restored snapshot was at recovery.
	CheckpointAge time.Duration
	// Recheckpointed reports whether a fresh snapshot was taken at
	// recovery, restoring crash consistency for the next outage.
	Recheckpointed bool
}

// IntegrityEvent aggregates frames the input-integrity guard
// quarantined on one topic for one cause at one detection point —
// diverted at the bus boundary, never dispatched.
type IntegrityEvent struct {
	// Topic is the topic the rejected frames were published on.
	Topic string
	// Cause names the rejection (e.g. "malformed-payload",
	// "stamp-rewind", "duplicate-stamp", "future-stamp").
	Cause string
	// Point names where the guard detected it (e.g. "ingress").
	Point string
	// Count is the number of frames quarantined.
	Count int
	// First and Last bound the observed rejections in virtual time.
	First, Last time.Duration
}

type integrityKey struct{ topic, cause, point string }

// DegradedInterval is one window during which a watchdog substituted
// for a faulty node — the degraded-operation record the
// chaos reports surface alongside latency distributions.
type DegradedInterval struct {
	// Node is the node whose output went stale.
	Node string
	// Policy names the fallback applied; the watchdog's is last-good.
	Policy string
	// Start is when staleness was detected; End when fresh output
	// resumed (zero while still degraded).
	Start, End time.Duration
	// Substituted counts fallback outputs published during the window.
	Substituted int
}

// NewRecorder creates an empty recorder for the given paths.
func NewRecorder(paths []PathSpec) *Recorder {
	return &Recorder{
		nodeLatency:  make(map[string][]float64),
		cpuSeconds:   make(map[string]float64),
		gpuSeconds:   make(map[string]float64),
		workSum:      make(map[string]work.Work),
		paths:        paths,
		pathLat:      make(map[string][]float64),
		openDegraded: make(map[string]int),
		openOutage:   make(map[string]int),
		integrity:    make(map[integrityKey]*IntegrityEvent),
	}
}

// OnQuarantine records one guard-quarantined frame.
func (r *Recorder) OnQuarantine(topic, cause, point string, at time.Duration) {
	k := integrityKey{topic: topic, cause: cause, point: point}
	ev := r.integrity[k]
	if ev == nil {
		ev = &IntegrityEvent{Topic: topic, Cause: cause, Point: point, First: at}
		r.integrity[k] = ev
	}
	ev.Count++
	if at < ev.First {
		ev.First = at
	}
	if at > ev.Last {
		ev.Last = at
	}
}

// IntegrityEvents returns the aggregated quarantine record, sorted by
// topic, then cause, then detection point.
func (r *Recorder) IntegrityEvents() []IntegrityEvent {
	out := make([]IntegrityEvent, 0, len(r.integrity))
	for _, ev := range r.integrity {
		out = append(out, *ev)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Topic != out[j].Topic {
			return out[i].Topic < out[j].Topic
		}
		if out[i].Cause != out[j].Cause {
			return out[i].Cause < out[j].Cause
		}
		return out[i].Point < out[j].Point
	})
	return out
}

// OnOutageOpen opens an outage for a node. A node has at most one open
// outage; a second OnOutageOpen before OnOutageClose is ignored.
func (r *Recorder) OnOutageOpen(node, cause string, at time.Duration) {
	if _, open := r.openOutage[node]; open {
		return
	}
	r.openOutage[node] = len(r.outages)
	r.outages = append(r.outages, Outage{Node: node, Cause: cause, Detected: at})
}

// OnOutageRestart counts one restart attempt during a node's open outage.
func (r *Recorder) OnOutageRestart(node string) {
	if i, open := r.openOutage[node]; open {
		r.outages[i].Restarts++
	}
}

// OnOutageFrameLost counts one input message consumed while down.
func (r *Recorder) OnOutageFrameLost(node string) {
	if i, open := r.openOutage[node]; open {
		r.outages[i].FramesLost++
	}
}

// OnOutageClose closes a node's open outage with its recovery metrics.
func (r *Recorder) OnOutageClose(node string, at time.Duration, restored bool, checkpointAge time.Duration, recheckpointed bool) {
	if i, open := r.openOutage[node]; open {
		r.outages[i].Recovered = at
		r.outages[i].Restored = restored
		r.outages[i].CheckpointAge = checkpointAge
		r.outages[i].Recheckpointed = recheckpointed
		delete(r.openOutage, node)
	}
}

// Outages returns all outages in detection order. Outages with a zero
// Recovered were still open when queried.
func (r *Recorder) Outages() []Outage {
	out := make([]Outage, len(r.outages))
	copy(out, r.outages)
	return out
}

// OnDegrade opens a degradation interval for a node. A node has at most
// one open interval; a second OnDegrade before OnRecover is ignored.
func (r *Recorder) OnDegrade(node, policy string, at time.Duration) {
	if _, open := r.openDegraded[node]; open {
		return
	}
	r.openDegraded[node] = len(r.degraded)
	r.degraded = append(r.degraded, DegradedInterval{Node: node, Policy: policy, Start: at})
}

// OnSubstitute counts one fallback output published while degraded.
func (r *Recorder) OnSubstitute(node string) {
	if i, open := r.openDegraded[node]; open {
		r.degraded[i].Substituted++
	}
}

// OnRecover closes a node's open degradation interval.
func (r *Recorder) OnRecover(node string, at time.Duration) {
	if i, open := r.openDegraded[node]; open {
		r.degraded[i].End = at
		delete(r.openDegraded, node)
	}
}

// DegradedIntervals returns all degradation intervals in the order they
// opened. Intervals with a zero End were still open when queried.
func (r *Recorder) DegradedIntervals() []DegradedInterval {
	out := make([]DegradedInterval, len(r.degraded))
	copy(out, r.degraded)
	return out
}

// Attach subscribes the recorder to an executor's event stream.
func (r *Recorder) Attach(ex *platform.Executor) {
	ex.Observe(func(ev platform.Event) {
		switch ev.Kind {
		case platform.Done:
			r.OnDone(ev.Done)
		case platform.Published:
			r.OnPublish(ev.Topic, ros.Header{Stamp: ex.Sim.Now(), Origins: ev.Origins})
		case platform.Quarantined:
			// The detection point is the executor's ingress hook; record at
			// arrival time (Sim.Now), not the possibly-corrupted stamp.
			r.OnQuarantine(ev.Topic, ev.Cause, "ingress", ex.Sim.Now())
		}
	})
}

// OnDone records one completed callback.
func (r *Recorder) OnDone(d platform.DoneInfo) {
	if d.Finished < r.Warmup {
		return
	}
	// Only callbacks that produced output count toward the latency
	// distribution (the paper's "input arrives ... until the output is
	// ready"); cache-update callbacks (IMU, pose, buffered detections)
	// still contribute to phase-time accounting below.
	if d.Outputs > 0 {
		lat := (d.Finished - d.Arrived).Seconds()
		// A skewed input clock can stamp the arrival in the future;
		// clamp so corrupted stamps cannot drive the span negative.
		if lat < 0 {
			lat = 0
		}
		r.nodeLatency[d.Node] = append(r.nodeLatency[d.Node], lat)
	}
	r.cpuSeconds[d.Node] += (d.CPUDone - d.Started).Seconds()
	r.gpuSeconds[d.Node] += (d.Finished - d.CPUDone).Seconds()
	ws := r.workSum[d.Node]
	ws.Add(d.Work)
	r.workSum[d.Node] = ws
}

// NodeWork returns the CPU counters a node reported, summed across all
// its callbacks — the measured instruction mix source for Fig. 7/Table
// VII. Its kernel list is empty (see work.Work.Add).
func (r *Recorder) NodeWork(node string) work.Work { return r.workSum[node] }

// OnPublish closes computation paths that terminate on this topic.
func (r *Recorder) OnPublish(topic string, h ros.Header) {
	if h.Stamp < r.Warmup {
		return
	}
	for _, p := range r.paths {
		if p.Terminal != topic {
			continue
		}
		for _, o := range h.Origins {
			if o.Topic == p.Origin {
				lat := (h.Stamp - o.Stamp).Seconds()
				// Origin stamps are not guaranteed monotonic once a
				// clock-skew fault future-stamps a sensor frame; clamp
				// so lineage spans never go negative.
				if lat < 0 {
					lat = 0
				}
				r.pathLat[p.Name] = append(r.pathLat[p.Name], lat)
			}
		}
	}
}

// NodeNames returns nodes with at least one sample, sorted.
func (r *Recorder) NodeNames() []string {
	out := make([]string, 0, len(r.nodeLatency))
	for n := range r.nodeLatency {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NodeLatency returns the latency summary (milliseconds) for a node.
func (r *Recorder) NodeLatency(node string) mathx.Summary {
	return mathx.Summarize(toMillis(r.nodeLatency[node]))
}

// NodeSamples returns the raw latency samples (milliseconds).
func (r *Recorder) NodeSamples(node string) []float64 {
	return toMillis(r.nodeLatency[node])
}

// PathLatency returns the latency summary (milliseconds) for a path.
func (r *Recorder) PathLatency(path string) mathx.Summary {
	return mathx.Summarize(toMillis(r.pathLat[path]))
}

// PathSamples returns raw path samples (milliseconds).
func (r *Recorder) PathSamples(path string) []float64 {
	return toMillis(r.pathLat[path])
}

// PathNames returns configured path names in order.
func (r *Recorder) PathNames() []string {
	out := make([]string, len(r.paths))
	for i, p := range r.paths {
		out[i] = p.Name
	}
	return out
}

// EndToEnd returns, per the paper's definition, the worst path: the
// name and summary of the path with the largest mean latency.
func (r *Recorder) EndToEnd() (string, mathx.Summary) {
	var worst string
	var worstSum mathx.Summary
	for _, p := range r.paths {
		s := r.PathLatency(p.Name)
		if s.Count == 0 {
			continue
		}
		if worst == "" || s.Mean > worstSum.Mean {
			worst, worstSum = p.Name, s
		}
	}
	return worst, worstSum
}

// CPUShare and GPUShare report the per-node phase-time split of total
// callback time, the Fig. 8 quantity.
func (r *Recorder) CPUShare(node string) float64 {
	c, g := r.cpuSeconds[node], r.gpuSeconds[node]
	if c+g == 0 {
		return 0
	}
	return c / (c + g)
}

// GPUShare is 1 - CPUShare for nodes with samples.
func (r *Recorder) GPUShare(node string) float64 {
	c, g := r.cpuSeconds[node], r.gpuSeconds[node]
	if c+g == 0 {
		return 0
	}
	return g / (c + g)
}

// Fingerprint renders every recorded node and path latency sample as
// an exact hexadecimal float, giving a bit-exact digest of the run for
// determinism tests: two runs are behaviourally identical iff their
// fingerprints match, with no decimal rounding to hide divergence.
func (r *Recorder) Fingerprint() string {
	var b strings.Builder
	for _, n := range r.NodeNames() {
		fmt.Fprintf(&b, "node %s:", n)
		for _, v := range r.NodeSamples(n) {
			fmt.Fprintf(&b, " %x", v)
		}
		b.WriteByte('\n')
	}
	for _, p := range r.PathNames() {
		fmt.Fprintf(&b, "path %s:", p)
		for _, v := range r.PathSamples(p) {
			fmt.Fprintf(&b, " %x", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func toMillis(sec []float64) []float64 {
	out := make([]float64, len(sec))
	for i, v := range sec {
		out[i] = v * 1000
	}
	return out
}
