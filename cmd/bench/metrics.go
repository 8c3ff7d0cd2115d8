package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricDef names one reported metric. The same names, units and
// directions are listed in BENCHMARK.json; a unit test keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the gated metrics, reported by every workload with
// tracing off. Each workload maps them onto what its user sees; see
// README.md for the per-workload definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_s_per_cpu_s", "s/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perceptionNodes are the eleven perception nodes in the order
// autoware.BuildWithMap registers them.
var perceptionNodes = []string{
	"voxel_grid_filter",
	"ray_ground_filter",
	"ndt_matching",
	"euclidean_cluster",
	"vision_detection",
	"range_vision_fusion",
	"imm_ukf_pda_tracker",
	"ukf_track_relay",
	"naive_motion_predict",
	"costmap_generator",
	"costmap_generator_obj",
}

// yoloPrefix names the vision workload's second detector.
const yoloPrefix = "nodes.vision_detection.YOLOv3-416"

// callMetrics are the replayed cost of one call into a layer.
func callMetrics(prefix string) []metricDef {
	return []metricDef{
		{prefix + ".us_per_call", "us", "lower"},
		{prefix + ".kib_per_call", "KiB", "lower"},
		{prefix + ".allocs_per_call", "count", "lower"},
	}
}

// perLayer are the traced run's metrics, grouped by module. A layer a
// workload does not exercise reports 0 (for example the LiDAR layer on
// the vision workload, or the journal on the drive workload).
func perLayer() []metricDef {
	defs := []metricDef{
		{"host.steal_pct", "%", "lower"},
		{"host.sim_s_per_wall_s", "s/s", "higher"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.worst_path_p99_ms", "ms", "lower"},
		{"world.build_s", "s", "lower"},
		{"hdmap.build_s", "s", "lower"},
		{"stack.build_ms", "ms", "lower"},
		{"world.at_us", "us", "lower"},
	}
	defs = append(defs, callMetrics("sensor.lidar_scan")...)
	defs = append(defs, metricDef{"sensor.lidar_scan.points", "count", "lower"})
	defs = append(defs, callMetrics("sensor.camera_capture")...)
	for _, n := range perceptionNodes {
		defs = append(defs, callMetrics("nodes."+n)...)
		defs = append(defs, metricDef{"nodes." + n + ".calls", "count", "lower"})
	}
	defs = append(defs, callMetrics(yoloPrefix)...)
	defs = append(defs, metricDef{yoloPrefix + ".calls", "count", "lower"})
	return append(defs, []metricDef{
		{"guard.ns_per_frame", "ns", "lower"},
		{"guard.allocs_per_frame", "count", "lower"},
		{"guard.frames", "count", "lower"},
		{"platform.events", "count", "lower"},
		{"platform.core_us_per_event", "us", "lower"},
		{"ros.messages", "count", "lower"},
		{"ros.drops", "count", "lower"},
		{"power.mean_w", "W", "lower"},
		{"power.j_per_frame", "J", "lower"},
		{"scenario.overload-shed.cpu_s", "s", "lower"},
		{"scenario.dup-storm.cpu_s", "s", "lower"},
		{"scenario.crash-recover.cpu_s", "s", "lower"},
		{"scenario.contention-tuned.cpu_s", "s", "lower"},
		{"scenario.baseline_leg_cpu_s", "s", "lower"},
		{"scenario.fault_events", "count", "lower"},
		{"fleet.hit_p50_ms", "ms", "lower"},
		{"fleet.hit_p90_ms", "ms", "lower"},
		{"fleet.hit_p99_ms", "ms", "lower"},
		{"fleet.hit_cpu_ms_p50", "ms", "lower"},
		{"fleet.submit_hit_ms_p50", "ms", "lower"},
		{"fleet.report_ms_p50", "ms", "lower"},
		{"fleet.miss_ms", "ms", "lower"},
		{"fleet.miss_queue_ms", "ms", "lower"},
		{"fleet.miss_run_ms", "ms", "lower"},
		{"fleet.cache_hit_ratio", "ratio", "higher"},
		{"fleet.rejected", "count", "lower"},
		{"gen.lag_p99_ms", "ms", "lower"},
		{"journal.append_us_p50", "us", "lower"},
		{"journal.sync_us_p50", "us", "lower"},
		{"journal.sync_us_p95", "us", "lower"},
		{"journal.bytes_per_job", "B", "lower"},
		{"journal.syncs_per_job", "count", "lower"},
	}...)
}

// run is one (workload, seed) execution: its correctness checks, the
// metrics it measured and the hashes of the outputs it produced.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	attempted, failed int
	metrics           map[string]float64
	outputs           map[string]string
}

func newRun(workload string, seed uint64, seconds float64, trace bool) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		metrics: map[string]float64{},
		outputs: map[string]string{},
	}
}

// check counts one correctness check and reports a failure.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
	return ok
}

// fail records an error that stopped the workload.
func (r *run) fail(err error) {
	r.check(false, "%v", err)
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) logf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result assembles the result line: the end-to-end metrics for an
// untraced run, the per-layer metrics for a traced one. An end-to-end
// metric that is missing, zero or not finite fails the run; a per-layer
// metric the workload does not exercise reads 0.
func (r *run) result() result {
	defs := endToEnd
	if r.trace {
		defs = perLayer()
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !r.trace {
			r.check(ok && v > 0 && !math.IsInf(v, 0), "metric %s measured as %v (present %v)", d.Name, v, ok)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return result{
		Correct:   r.attempted > 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   out,
	}
}

// outputsPrefix marks the line that carries the output hashes, which a
// parent process reads to flag changed outputs between two records.
const outputsPrefix = "outputs "

// emit prints the metrics by name and unit, the output hashes, and the
// result line last.
func (r *run) emit(w io.Writer) result {
	res := r.result()
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d checks, %d failed\n", r.workload, r.seed, r.trace, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, m.Value, m.Unit)
	}
	hashes, _ := json.Marshal(r.outputs)
	fmt.Fprintf(w, "%s%s\n", outputsPrefix, hashes)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
	return res
}
