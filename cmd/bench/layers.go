package main

import (
	"fmt"
	"reflect"
	"slices"
	"time"

	"repro/internal/autoware"
	"repro/internal/guard"
	"repro/internal/hdmap"
	"repro/internal/msgs"
	"repro/internal/nodes/costmap"
	"repro/internal/nodes/filters"
	"repro/internal/nodes/fusion"
	"repro/internal/nodes/lidardet"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/prediction"
	"repro/internal/nodes/tracking"
	"repro/internal/nodes/visiondet"
	"repro/internal/platform"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/work"
	"repro/internal/world"
)

// The traced run measures each layer from outside. It runs the stack
// live once with observers on the executor (every processed input) and
// the bus (every publication), then replays what it saw through fresh
// sensors, fresh nodes and a fresh guard, timing each call. A replay
// must reproduce the live run exactly, or the timing would be of some
// other computation; every mismatch fails the run. What the replay does
// not cover — the platform model, transport, tracing and power sampling
// — is the live CPU minus the replayed CPU, per simulated event.

// call is one callback the live run completed.
type call struct {
	in      *ros.Message // detached copy of the input envelope
	now     time.Duration
	work    work.Work
	outputs int
}

// arrival is one publication as it reached the subscriber queues.
type arrival struct {
	topic      string
	stamp, now time.Duration
	payload    any
}

// capture is what the observers recorded.
type capture struct {
	calls     map[string][]call // per node, in processing order
	published map[string][]any  // per topic, in publication order
	arrivals  []arrival
	lastSeq   map[string]uint64
}

// attachCapture chains the observers behind the hooks already installed.
func attachCapture(st *autoware.Stack) *capture {
	c := &capture{
		calls:     map[string][]call{},
		published: map[string][]any{},
		lastSeq:   map[string]uint64{},
	}
	prev := st.Executor.OnDone
	st.Executor.OnDone = func(d platform.DoneInfo) {
		if prev != nil {
			prev(d)
		}
		in := &ros.Message{Topic: d.Input.Topic, Header: d.Input.Header, Payload: d.Input.Payload}
		in.Header.Origins = slices.Clone(d.Input.Header.Origins)
		w := d.Work
		w.Kernels = slices.Clone(w.Kernels)
		c.calls[d.Node] = append(c.calls[d.Node], call{in: in, now: d.Started, work: w, outputs: d.Outputs})
	}
	// The bus calls onDeliver once per subscriber; one publication is one
	// new sequence number on its topic.
	st.Bus.Tap(func(_ *ros.Subscription, m *ros.Message) {
		if seq, seen := c.lastSeq[m.Topic]; seen && seq == m.Header.Seq {
			return
		}
		c.lastSeq[m.Topic] = m.Header.Seq
		c.published[m.Topic] = append(c.published[m.Topic], m.Payload)
		c.arrivals = append(c.arrivals, arrival{m.Topic, m.Header.Stamp, st.Sim.Now(), m.Payload})
	}, nil)
	return c
}

// cost is the CPU and allocation bill of a batch of calls.
type cost struct {
	calls   int
	cpu     float64
	mallocs uint64
	bytes   uint64
}

// measure runs fn and bills it.
func measure(calls int, fn func()) cost {
	a0, c0 := readAllocs(), cpuSeconds()
	fn()
	c1, a1 := cpuSeconds(), readAllocs()
	return cost{calls: calls, cpu: c1 - c0, mallocs: a1.mallocs - a0.mallocs, bytes: a1.bytes - a0.bytes}
}

// set reports a cost as per-call metrics under prefix.
func (c cost) set(r *run, prefix string) {
	if c.calls == 0 {
		return
	}
	n := float64(c.calls)
	r.set(prefix+".us_per_call", 1e6*c.cpu/n)
	r.set(prefix+".kib_per_call", float64(c.bytes)/1024/n)
	r.set(prefix+".allocs_per_call", float64(c.mallocs)/n)
}

// freshNodes constructs the perception graph the way autoware.BuildWithMap
// does, in registration order.
func freshNodes(cfg autoware.Config, m *hdmap.Map) ([]ros.Node, error) {
	arch, err := cfg.Detector.Arch()
	if err != nil {
		return nil, err
	}
	vcfg := visiondet.DefaultConfig(arch)
	if cfg.VisionQueueDepth > 0 {
		vcfg.QueueDepth = cfg.VisionQueueDepth
	}
	vision := visiondet.New(vcfg)
	if cfg.Mode == autoware.ModeVisionStandalone {
		return []ros.Node{vision}, nil
	}
	vg := filters.DefaultVoxelGridConfig()
	if cfg.VoxelLeaf > 0 {
		vg.Leaf = cfg.VoxelLeaf
	}
	fcfg := fusion.DefaultConfig()
	fcfg.Camera = cfg.Camera
	return []ros.Node{
		filters.NewVoxelGrid(vg),
		filters.NewRayGround(filters.DefaultRayGroundConfig()),
		localization.New(localization.DefaultConfig(), m),
		lidardet.New(lidardet.DefaultConfig()),
		vision,
		fusion.New(fcfg),
		tracking.New(tracking.DefaultConfig()),
		prediction.NewRelay(),
		prediction.New(prediction.DefaultConfig()),
		costmap.NewPoints(costmap.DefaultConfig()),
		costmap.NewObjects(costmap.DefaultConfig()),
	}, nil
}

// replayNode feeds a fresh node the live run's inputs in order, then
// compares every result with the live one: the reported work, the
// output count, and each output payload the bus delivered.
func replayNode(r *run, n ros.Node, c *capture, prefix string) cost {
	calls := c.calls[n.Name()]
	results := make([]ros.Result, len(calls))
	bill := measure(len(calls), func() {
		for i, cl := range calls {
			results[i] = n.Process(cl.in, cl.now)
		}
	})
	next := map[string]int{}
	bad := 0
	for i, res := range results {
		ok := len(res.Outputs) == calls[i].outputs && reflect.DeepEqual(res.Work, calls[i].work)
		for _, o := range res.Outputs {
			k := next[o.Topic]
			next[o.Topic]++
			// Outputs still in transport at the horizon were never delivered.
			if live := c.published[o.Topic]; k < len(live) {
				ok = ok && reflect.DeepEqual(o.Payload, live[k])
			}
		}
		if !ok {
			bad++
		}
	}
	r.check(len(calls) > 0, "%s: no callbacks captured", prefix)
	r.check(bad == 0, "%s: %d of %d replayed calls differ from the live run", prefix, bad, len(calls))
	bill.set(r, prefix)
	r.set(prefix+".calls", float64(len(calls)))
	return bill
}

var sensorTopics = []string{filters.TopicPointsRaw, visiondet.TopicImageRaw, localization.TopicGNSS, localization.TopicIMU}

// replaySensors regenerates every LiDAR scan and camera frame at its
// captured stamp with fresh sensors and compares them with the live
// payloads. It returns the CPU the world, LiDAR and camera layers cost,
// scaled to every sensor tick of the live run.
func replaySensors(r *run, cfg autoware.Config, e env, c *capture) float64 {
	var ticks []arrival
	for _, a := range c.arrivals {
		if slices.Contains(sensorTopics, a.topic) {
			ticks = append(ticks, a)
		}
	}
	snaps := make([]world.Snapshot, len(ticks))
	at := measure(replayReps*len(ticks), func() {
		for rep := 0; rep < replayReps; rep++ {
			for i, a := range ticks {
				snaps[i] = e.scen.At(a.stamp.Seconds())
			}
		}
	})
	if at.calls > 0 {
		r.set("world.at_us", 1e6*at.cpu/float64(at.calls))
	}

	var lidarIdx, camIdx []int
	for i, a := range ticks {
		switch a.topic {
		case filters.TopicPointsRaw:
			lidarIdx = append(lidarIdx, i)
		case visiondet.TopicImageRaw:
			camIdx = append(camIdx, i)
		}
	}
	lidar := sensor.NewLiDAR(cfg.LiDAR, e.scen.City)
	clouds := make([]any, len(lidarIdx))
	scans := measure(len(lidarIdx), func() {
		for k, i := range lidarIdx {
			clouds[k] = lidar.Scan(&snaps[i])
		}
	})
	points, badScans := 0, 0
	for k, i := range lidarIdx {
		live := ticks[i].payload.(*msgs.PointCloud).Cloud
		points += live.Len()
		if !reflect.DeepEqual(clouds[k], live) {
			badScans++
		}
	}
	camera := sensor.NewCamera(cfg.Camera, e.scen.City)
	frames := make([]any, len(camIdx))
	captures := measure(len(camIdx), func() {
		for k, i := range camIdx {
			frames[k] = camera.Capture(&snaps[i])
		}
	})
	badFrames := 0
	for k, i := range camIdx {
		if !reflect.DeepEqual(frames[k], ticks[i].payload.(*msgs.CameraImage).Frame) {
			badFrames++
		}
	}
	r.check(badScans == 0, "LiDAR replay: %d of %d scans differ from the live run", badScans, len(lidarIdx))
	r.check(len(camIdx) > 0 && badFrames == 0, "camera replay: %d of %d frames differ from the live run", badFrames, len(camIdx))
	scans.set(r, "sensor.lidar_scan")
	captures.set(r, "sensor.camera_capture")
	if len(lidarIdx) > 0 {
		r.set("sensor.lidar_scan.points", float64(points)/float64(len(lidarIdx)))
	}
	return at.cpu/replayReps + scans.cpu + captures.cpu
}

// replayReps repeats the replays of microsecond-scale calls (world
// snapshots, guard inspections) so they add up to a measurable CPU
// interval.
const replayReps = 20

// replayGuard runs a fresh ingress guard over every arrival. The input
// is clean, so the guard must accept every frame.
func replayGuard(r *run, c *capture) {
	quarantined := 0
	bill := measure(replayReps*len(c.arrivals), func() {
		for rep := 0; rep < replayReps; rep++ {
			g := guard.New(guard.Config{})
			for _, a := range c.arrivals {
				if g.Inspect(a.topic, a.stamp, a.payload, a.now).Quarantine && rep == 0 {
					quarantined++
				}
			}
		}
	})
	r.check(quarantined == 0, "guard replay quarantined %d of %d clean arrivals", quarantined, len(c.arrivals))
	if bill.calls > 0 {
		r.set("guard.ns_per_frame", 1e9*bill.cpu/float64(bill.calls))
		r.set("guard.allocs_per_frame", float64(bill.mallocs)/float64(bill.calls))
	}
	r.set("guard.frames", float64(len(c.arrivals)))
}

// profileSim runs one untraced reference episode, then the traced one.
func profileSim(r *run, cfg autoware.Config, e env, st *autoware.Stack, horizon time.Duration) (episode, bool) {
	ref, err := runEpisode(cfg, e, st, horizon)
	if err != nil {
		r.fail(err)
		return episode{}, false
	}
	profileLayers(r, cfg, e, horizon, ref)
	return ref, true
}

// profileLayers runs cfg live with capture for horizon and replays it
// layer by layer. ref is an untraced episode of the same configuration
// and horizon, the baseline for the tracing overhead.
func profileLayers(r *run, cfg autoware.Config, e env, horizon time.Duration, ref episode) {
	st, err := autoware.BuildWithMap(cfg, e.scen, e.m)
	if err != nil {
		r.fail(fmt.Errorf("building stack: %w", err))
		return
	}
	c := attachCapture(st)
	c0 := cpuSeconds()
	events := st.Sim.Run(horizon)
	live := cpuSeconds() - c0

	replayed := replaySensors(r, cfg, e, c)
	replayGuard(r, c)
	nodes, err := freshNodes(cfg, e.m)
	if err != nil {
		r.fail(err)
		return
	}
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name()
		replayed += replayNode(r, n, c, "nodes."+n.Name()).cpu
	}
	r.check(slices.Equal(names, st.Executor.NodeNames()), "replayed graph %v differs from the live graph %v", names, st.Executor.NodeNames())

	r.set("platform.events", float64(events))
	r.set("platform.core_us_per_event", 1e6*(live-replayed)/float64(events))
	var messages, drops uint64
	for _, ts := range st.Bus.TopicStats() {
		messages += ts.Messages
	}
	for _, d := range st.Bus.DropReports() {
		drops += d.Dropped
	}
	r.set("ros.messages", float64(messages))
	r.set("ros.drops", float64(drops))
	r.set("trace.overhead_pct", 100*(live-ref.cpu)/ref.cpu)
	r.set("host.sim_s_per_wall_s", horizon.Seconds()/ref.wall.Seconds())

	frames := st.Recorder.NodeSamples(autoware.VisionNodeName)
	if cfg.Mode != autoware.ModeVisionStandalone {
		path, _ := st.Recorder.EndToEnd()
		frames = st.Recorder.PathSamples(path)
	}
	watts := st.Sampler.MeanCPUPower() + st.Sampler.MeanGPUPower()
	r.set("power.mean_w", watts)
	if r.check(len(frames) > 0, "traced run produced no end-to-end outputs") {
		r.set("power.j_per_frame", watts*horizon.Seconds()/float64(len(frames)))
		r.set("trace.worst_path_p99_ms", percentile(frames, 99))
	}
}

// profileYOLO replays the vision workload's second detector.
func profileYOLO(r *run, cfg autoware.Config, e env, horizon time.Duration) {
	st, err := autoware.BuildWithMap(cfg, e.scen, e.m)
	if err != nil {
		r.fail(fmt.Errorf("building stack: %w", err))
		return
	}
	c := attachCapture(st)
	st.Sim.Run(horizon)
	nodes, err := freshNodes(cfg, e.m)
	if err != nil {
		r.fail(err)
		return
	}
	replayNode(r, nodes[0], c, yoloPrefix)
}
