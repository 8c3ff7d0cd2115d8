// Package autoware assembles the full stack — the synthetic drive, the
// sensor suite, every perception node, and optionally the planners —
// onto the simulated platform, reproducing the execution environment of
// the paper's methodology (Fig. 3): replayable sensor input, a
// point-cloud map, and the complete node graph running concurrently.
package autoware

import (
	"fmt"
	"time"

	"repro/internal/dnn"
	"repro/internal/hdmap"
	"repro/internal/platform"
	"repro/internal/sensor"
	"repro/internal/world"
)

// Detector selects the vision detection algorithm, the paper's main
// configuration axis.
type Detector string

// Detector choices.
const (
	DetectorSSD512 Detector = "SSD512"
	DetectorSSD300 Detector = "SSD300"
	DetectorYOLOv3 Detector = "YOLOv3-416"
)

// Arch resolves the detector's DNN architecture.
func (d Detector) Arch() (dnn.Arch, error) {
	return dnn.ArchByName(string(d))
}

// Detectors lists the three configurations the paper sweeps.
func Detectors() []Detector {
	return []Detector{DetectorSSD512, DetectorSSD300, DetectorYOLOv3}
}

// Mode selects which parts of the graph run.
type Mode int

// Modes.
const (
	// ModeFull runs the complete perception stack (the paper's main
	// configuration).
	ModeFull Mode = iota
	// ModeVisionStandalone runs only the vision detector (the paper's
	// isolated-profiling comparison, Fig. 8).
	ModeVisionStandalone
	// ModeFullWithPlanning adds the actuation-layer nodes the paper
	// could not stimulate.
	ModeFullWithPlanning
)

// Config parameterizes a stack run.
type Config struct {
	Detector Detector
	Mode     Mode

	Scenario world.ScenarioConfig
	Map      hdmap.Config
	// MapFile, when set, loads a prebuilt HD map (cmd/mapbuilder) instead
	// of synthesizing one — the expensive step of stack construction.
	MapFile string
	LiDAR   sensor.LiDARConfig
	Camera  sensor.CameraConfig

	CPU    platform.CPUConfig
	GPU    platform.GPUConfig
	Jitter platform.JitterConfig

	// Sensor rates, Hz.
	LiDARRate  float64
	CameraRate float64
	GNSSRate   float64
	IMURate    float64

	// Warmup discards measurements before this virtual time.
	Warmup time.Duration

	// NoSensorPumps disables the live sensor drivers; input then comes
	// from bag replay via Stack.InjectBag (the paper's ROSBAG workflow).
	NoSensorPumps bool

	// Guard attaches the input-integrity layer (internal/guard): payload
	// validation and time sanitization at the bus boundary, quarantining
	// corrupted frames before they reach any node. On clean input the
	// guard is a no-op (byte-identical reports either way).
	Guard bool

	// VoxelLeaf overrides the voxel_grid_filter leaf size (meters);
	// zero keeps the default. Ablation knob.
	VoxelLeaf float64
	// VisionQueueDepth overrides the detector's input queue depth;
	// zero keeps the default (1). Ablation knob.
	VisionQueueDepth int
}

// DefaultConfig mirrors the paper's setup: 10 Hz LiDAR, 9.9 Hz camera,
// one high-end CPU + GPU, full stack.
func DefaultConfig(det Detector) Config {
	return Config{
		Detector:   det,
		Mode:       ModeFull,
		Scenario:   world.DefaultScenarioConfig(),
		Map:        hdmap.DefaultConfig(),
		LiDAR:      sensor.DefaultLiDARConfig(),
		Camera:     sensor.DefaultCameraConfig(),
		CPU:        platform.DefaultCPUConfig(),
		GPU:        platform.DefaultGPUConfig(),
		Jitter:     platform.DefaultJitterConfig(),
		LiDARRate:  10,
		CameraRate: 9.9,
		GNSSRate:   1,
		IMURate:    50,
		Warmup:     3 * time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if _, err := c.Detector.Arch(); err != nil {
		return fmt.Errorf("autoware: %w", err)
	}
	if c.LiDARRate <= 0 || c.CameraRate <= 0 || c.GNSSRate <= 0 || c.IMURate <= 0 {
		return fmt.Errorf("autoware: sensor rates must be positive")
	}
	return nil
}

// costScales calibrates each node's Work op volume to the per-callback
// cost of the Autoware original it models (C++/PCL/CUDA), using the
// paper's reported mean latencies as the reference (Fig. 5). Scales
// multiply CPU time only; per-frame variation still comes from the real
// scene-dependent work each Go implementation reports, so distribution
// *shapes* are emergent, not dialed in. See DESIGN.md §4.
var costScales = map[string]float64{
	"voxel_grid_filter":     30,
	"ray_ground_filter":     53,
	"ndt_matching":          27,
	"euclidean_cluster":     0.6,
	"vision_detection":      0.82,
	"range_vision_fusion":   120,
	"imm_ukf_pda_tracker":   17,
	"ukf_track_relay":       2,
	"naive_motion_predict":  50,
	"costmap_generator":     60,
	"costmap_generator_obj": 110,
	"op_global_planner":     1.0,
	"op_local_planner":      2.0,
	"pure_pursuit":          1.0,
	"twist_filter":          1.0,
}
