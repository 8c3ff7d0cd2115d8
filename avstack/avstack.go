// Package avstack is the public API of the reproduction: it assembles
// the full Autoware-style perception stack (synthetic drive, sensors,
// every perception node) on the simulated platform, runs it, and
// exposes the measurements the paper's characterization is built from —
// per-node latency distributions, end-to-end computation paths,
// utilization, power, message drops — plus the one-call characterizer
// that regenerates every table and figure.
//
// Run-time layers — fault injection, supervision, deadline shedding,
// the graceful-degradation watchdog and the deadline scheduler — are
// installed by AttachLayers, the one place that wires them, in the
// order the supervisor's callback filter, which wraps the injector's,
// depends on.
//
// Quick start:
//
//	sys, err := avstack.NewSystem(avstack.DetectorSSD512)
//	if err != nil { ... }
//	sys.Run(30 * time.Second)
//	fmt.Println(sys.NodeLatency("ndt_matching"))
package avstack

import (
	"fmt"
	"io"
	"time"

	"repro/internal/autoware"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/msgs"
	"repro/internal/power"
	"repro/internal/ros"
	"repro/internal/trace"
	"repro/internal/world"
)

// Detector selects the image-detection algorithm.
type Detector = autoware.Detector

// Detector choices, the paper's configuration axis.
const (
	DetectorSSD512 = autoware.DetectorSSD512
	DetectorSSD300 = autoware.DetectorSSD300
	DetectorYOLOv3 = autoware.DetectorYOLOv3
)

// Summary is a latency distribution summary (milliseconds).
type Summary = mathx.Summary

// Options tune system assembly beyond the defaults.
type Options struct {
	// LeadVehicle adds a car driving the ego's route just ahead — a
	// persistent perception target for quality evaluation.
	LeadVehicle bool
	// VisionOnly runs just the detector (the paper's isolated-profiling
	// mode).
	VisionOnly bool
	// WithPlanning adds the actuation-layer nodes.
	WithPlanning bool
	// MapFile loads a prebuilt HD map (see cmd/mapbuilder) instead of
	// synthesizing one during construction.
	MapFile string
	// Scenario overrides the whole drive parameterization with a
	// procedurally generated (or hand-built) world config — traffic mix,
	// pedestrian bursts, weather profile, city topology. Nil keeps the
	// scripted default. See world.Generate and world.ParseParams.
	Scenario *world.ScenarioConfig
	// Guard builds the input-integrity layer into the stack: payload
	// validation and time sanitization at the bus boundary quarantine
	// corrupted frames before any node sees them. On clean input it
	// changes nothing — reports stay byte-identical to an unguarded run.
	Guard bool
}

// System is an assembled, runnable stack.
type System struct {
	stack *autoware.Stack
}

// NewSystem builds a full system with default options. Construction
// synthesizes the drive's HD map and takes a few seconds of wall time.
func NewSystem(det Detector) (*System, error) {
	return NewSystemWithOptions(det, Options{})
}

// NewSystemWithOptions builds a system with explicit options.
func NewSystemWithOptions(det Detector, opts Options) (*System, error) {
	cfg := autoware.DefaultConfig(det)
	if opts.VisionOnly && opts.WithPlanning {
		return nil, fmt.Errorf("avstack: VisionOnly and WithPlanning are mutually exclusive")
	}
	if opts.VisionOnly {
		cfg.Mode = autoware.ModeVisionStandalone
	}
	if opts.WithPlanning {
		cfg.Mode = autoware.ModeFullWithPlanning
	}
	if opts.Scenario != nil {
		cfg.Scenario = *opts.Scenario
	}
	if opts.LeadVehicle {
		cfg.Scenario.LeadVehicle = true
	}
	cfg.MapFile = opts.MapFile
	cfg.Guard = opts.Guard
	stack, err := autoware.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &System{stack: stack}, nil
}

// Run advances the drive by the given virtual duration (cumulative).
func (s *System) Run(d time.Duration) { s.stack.Run(d) }

// Now returns the current virtual time of the drive.
func (s *System) Now() time.Duration { return s.stack.Sim.Now() }

// Nodes returns the names of nodes with recorded latency samples.
func (s *System) Nodes() []string { return s.stack.Recorder.NodeNames() }

// NodeLatency returns the latency summary (ms) of one node.
func (s *System) NodeLatency(node string) Summary {
	return s.stack.Recorder.NodeLatency(node)
}

// NodeSamples returns the raw per-callback latencies (ms) of one node.
func (s *System) NodeSamples(node string) []float64 {
	return s.stack.Recorder.NodeSamples(node)
}

// Paths returns the computation path names (Table IV).
func (s *System) Paths() []string { return s.stack.Recorder.PathNames() }

// PathLatency returns the latency summary (ms) of one computation path.
func (s *System) PathLatency(path string) Summary {
	return s.stack.Recorder.PathLatency(path)
}

// EndToEnd returns the worst computation path and its summary — the
// paper's definition of perception end-to-end latency.
func (s *System) EndToEnd() (string, Summary) { return s.stack.Recorder.EndToEnd() }

// MeanPower returns the mean CPU and GPU power draw in watts.
func (s *System) MeanPower() (cpu, gpu float64) {
	return s.stack.Sampler.MeanCPUPower(), s.stack.Sampler.MeanGPUPower()
}

// MeanUtilization returns the mean CPU and GPU utilization in [0, 1].
func (s *System) MeanUtilization() (cpu, gpu float64) {
	return s.stack.Sampler.MeanCPUUtil(), s.stack.Sampler.MeanGPUUtil()
}

// Utilization returns per-node platform shares, highest CPU share first.
func (s *System) Utilization() []power.UtilizationRow {
	return s.stack.UtilizationReport()
}

// DegradedInterval is one recorded graceful-degradation window.
type DegradedInterval = trace.DegradedInterval

// DegradedIntervals returns recorded degradation windows (empty without
// an attached watchdog).
func (s *System) DegradedIntervals() []DegradedInterval {
	return s.stack.Recorder.DegradedIntervals()
}

// Outage is one recorded node outage: detection, restarts, frames lost,
// recovery, and checkpoint restoration.
type Outage = trace.Outage

// Outages returns recorded node outages (empty without supervision).
func (s *System) Outages() []Outage { return s.stack.Recorder.Outages() }

// IntegrityEvent is one aggregated quarantine record from the trace.
type IntegrityEvent = trace.IntegrityEvent

// IntegrityEvents returns the aggregated quarantine record (empty
// without the guard or on clean input).
func (s *System) IntegrityEvents() []IntegrityEvent {
	return s.stack.Recorder.IntegrityEvents()
}

// DropReport is one dropped-message statistic row.
type DropReport = ros.DropReport

// Drops returns per-subscription message-drop statistics.
func (s *System) Drops() []DropReport { return s.stack.Bus.DropReports() }

// TopicStats is one topic's accepted-publication and shed counts.
type TopicStats = ros.TopicStats

// Topics returns each published or shed topic's counts.
func (s *System) Topics() []TopicStats { return s.stack.Bus.TopicStats() }

// Pose returns the current localization estimate; ok is false before
// initialization.
func (s *System) Pose() (geom.Pose, bool) {
	if s.stack.NDT == nil {
		return geom.Pose{}, false
	}
	return s.stack.NDT.Pose()
}

// GroundTruthPose returns the true ego pose at the current time.
func (s *System) GroundTruthPose() geom.Pose {
	snap := s.stack.Scenario.At(s.stack.Sim.Now().Seconds())
	return snap.Ego.Pose
}

// TrackedObject is one confirmed track.
type TrackedObject struct {
	ID       int
	Label    string
	Position geom.Vec2
	Velocity geom.Vec2
}

// TrackedObjects returns the tracker's confirmed objects.
func (s *System) TrackedObjects() []TrackedObject {
	if s.stack.Tracker == nil {
		return nil
	}
	var out []TrackedObject
	for _, tr := range s.stack.Tracker.Tracks() {
		if !tr.Confirmed(3) {
			continue
		}
		out = append(out, TrackedObject{
			ID:       tr.ID,
			Label:    string(tr.Label),
			Position: tr.IMM.Pos(),
			Velocity: tr.IMM.Velocity(),
		})
	}
	return out
}

// CPUShare returns the fraction of a node's execution time spent on the
// CPU (vs GPU offload) — the Fig. 8 quantity.
func (s *System) CPUShare(node string) float64 {
	return s.stack.Recorder.CPUShare(node)
}

// Label constants for TrackedObject.Label.
const (
	LabelCar        = string(msgs.LabelCar)
	LabelTruck      = string(msgs.LabelTruck)
	LabelPedestrian = string(msgs.LabelPedestrian)
	LabelCyclist    = string(msgs.LabelCyclist)
	LabelUnknown    = string(msgs.LabelUnknown)
)

// QualityReport summarizes perception quality against ground truth.
type QualityReport = eval.Report

// RunScored advances the drive in steps of the given size, scoring the
// tracker's confirmed objects and the localization estimate against
// ground truth after each step, and returns the aggregate quality
// report. Use Options.LeadVehicle to guarantee a nearby target.
func (s *System) RunScored(total, step time.Duration) QualityReport {
	if step <= 0 {
		step = 500 * time.Millisecond
	}
	agg := eval.NewAggregate()
	for elapsed := time.Duration(0); elapsed < total; elapsed += step {
		s.Run(step)
		snap := s.stack.Scenario.At(s.stack.Sim.Now().Seconds())
		var objs []msgs.DetectedObject
		if s.stack.Tracker != nil {
			for _, tr := range s.stack.Tracker.Tracks() {
				if !tr.Confirmed(3) {
					continue
				}
				pos := tr.IMM.Pos()
				objs = append(objs, msgs.DetectedObject{
					ID: tr.ID, Label: tr.Label,
					Pose: geom.Pose{Pos: geom.V3(pos.X, pos.Y, 0)},
				})
			}
		}
		agg.AddFrame(eval.ScoreFrame(objs, &snap, 25, 5.0))
		if s.stack.NDT != nil {
			if pose, ok := s.stack.NDT.Pose(); ok {
				agg.AddLocalization(pose.XY().Dist(snap.Ego.Pose.XY()))
			}
		}
	}
	return agg.Report()
}

// Characterize runs the paper's full methodology — every table and
// figure, then the findings checklist — over the scripted drive's
// environment (experiments.NewEnv, built once per process) with the
// given virtual drive duration per configuration, writing the report
// to w.
func Characterize(w io.Writer, duration time.Duration) error {
	if duration <= 0 {
		return fmt.Errorf("avstack: non-positive duration %v", duration)
	}
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	return experiments.RunAll(w, experiments.NewRuns(env, duration))
}
