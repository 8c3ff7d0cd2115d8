// Package fusion implements range_vision_fusion: projecting LiDAR
// clusters into the camera image, associating them with vision
// detections by rectangle overlap, and emitting labeled objects in the
// map frame — the step that gives LiDAR volumes their semantics and
// vision boxes their 3D placement.
package fusion

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/lidardet"
	"repro/internal/nodes/localization"
	"repro/internal/nodes/visiondet"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/work"
)

// TopicObjects is the fused detection output.
const TopicObjects = "/detection/fusion_tools/objects"

// Config parameterizes the fusion node.
type Config struct {
	// Camera is the calibration the projection uses (must match the
	// sensing rig).
	Camera sensor.CameraConfig
	// MinIoU is the association threshold between a projected cluster
	// rectangle and a vision rectangle.
	MinIoU     float64
	QueueDepth int
}

// DefaultConfig returns the stock configuration.
func DefaultConfig() Config {
	return Config{Camera: sensor.DefaultCameraConfig(), MinIoU: 0.3, QueueDepth: 2}
}

// Node is the range_vision_fusion node. It is triggered by LiDAR
// cluster arrays and fuses against the latest cached vision detections
// and localization pose.
type Node struct {
	cfg Config
	fx  float64
	cx  float64
	cy  float64

	lastVision    *ros.Message
	visionObjects []msgs.DetectedObject
	egoPose       geom.Pose
	havePose      bool
}

// New builds the node.
func New(cfg Config) *Node {
	if cfg.Camera.Width <= 0 || cfg.Camera.HFovDeg <= 0 {
		panic("fusion: invalid camera calibration")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	fx := float64(cfg.Camera.Width) / 2 / math.Tan(cfg.Camera.HFovDeg/2*math.Pi/180)
	return &Node{
		cfg: cfg,
		fx:  fx,
		cx:  float64(cfg.Camera.Width) / 2,
		cy:  float64(cfg.Camera.Height) / 2,
	}
}

// Name implements ros.Node.
func (n *Node) Name() string { return "range_vision_fusion" }

// Subscribes implements ros.Node.
func (n *Node) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{
		{Topic: lidardet.TopicObjects, Depth: n.cfg.QueueDepth},
		{Topic: visiondet.TopicObjects, Depth: n.cfg.QueueDepth},
		{Topic: localization.TopicCurrentPose, Depth: 1},
	}
}

// Process implements ros.Node.
func (n *Node) Process(in *ros.Message, _ time.Duration) ros.Result {
	switch payload := in.Payload.(type) {
	case *msgs.PoseStamped:
		n.egoPose = payload.Pose
		n.havePose = true
		return ros.Result{Work: work.Work{IntOps: 120, LoadOps: 60, StoreOps: 30, BranchOps: 20, BytesTouched: 256}}
	case *msgs.DetectedObjectArray:
		if in.Topic == visiondet.TopicObjects {
			n.visionObjects = payload.Objects
			n.lastVision = in
			return ros.Result{Work: work.Work{
				IntOps: 300, LoadOps: 150, StoreOps: 80, BranchOps: 50,
				BytesTouched: float64(1024 + 256*len(payload.Objects)),
			}}
		}
		return n.fuse(in, payload)
	default:
		return ros.Result{}
	}
}

// projectCluster maps an ego-frame cluster into an image rectangle;
// ok is false when the cluster is outside the camera frustum.
func (n *Node) projectCluster(obj msgs.DetectedObject) (geom.Rect, bool) {
	camPose := n.cfg.Camera.Mount // ego -> camera offset
	// Project the cluster's bounding box corners.
	half := obj.Dim.Scale(0.5)
	base := obj.Pose.Pos
	rect := geom.Rect{Min: geom.V2(math.Inf(1), math.Inf(1)), Max: geom.V2(math.Inf(-1), math.Inf(-1))}
	any := false
	for _, dx := range []float64{-half.X, half.X} {
		for _, dy := range []float64{-half.Y, half.Y} {
			for _, dz := range []float64{0, obj.Dim.Z} {
				p := geom.V3(base.X+dx, base.Y+dy, base.Z+dz)
				local := camPose.Inverse(p)
				if local.X < 0.5 {
					continue
				}
				any = true
				u := n.cx - n.fx*local.Y/local.X
				v := n.cy - n.fx*local.Z/local.X
				rect.Expand(geom.V2(u, v))
			}
		}
	}
	if !any {
		return geom.Rect{}, false
	}
	bounds := geom.NewRect(geom.V2(0, 0), geom.V2(float64(n.cfg.Camera.Width-1), float64(n.cfg.Camera.Height-1)))
	rect = rect.Intersect(bounds)
	if rect.Area() < 4 {
		return geom.Rect{}, false
	}
	return rect, true
}

func (n *Node) fuse(in *ros.Message, clusters *msgs.DetectedObjectArray) ros.Result {
	fused := make([]msgs.DetectedObject, 0, len(clusters.Objects))
	associations := 0
	for _, obj := range clusters.Objects {
		rect, visible := n.projectCluster(obj)
		if visible {
			// Greedy best-IoU association against cached vision boxes.
			bestIoU, bestIdx := n.cfg.MinIoU, -1
			for vi, v := range n.visionObjects {
				if !v.HasImageRect {
					continue
				}
				associations++
				if iou := rect.IoU(v.ImageRect); iou > bestIoU {
					bestIoU, bestIdx = iou, vi
				}
			}
			if bestIdx >= 0 {
				v := n.visionObjects[bestIdx]
				obj.Label = v.Label
				obj.Score = math.Max(obj.Score, v.Score)
				obj.ImageRect = v.ImageRect
				obj.HasImageRect = true
			}
		}
		// Lift into the map frame when localized; otherwise keep ego
		// frame (FrameID communicates which).
		if n.havePose {
			obj.Pose = n.egoPose.Compose(obj.Pose)
			hull := make(geom.Polygon, len(obj.Hull))
			for i, h := range obj.Hull {
				w := n.egoPose.Transform(geom.V3(h.X, h.Y, 0))
				hull[i] = w.XY()
			}
			obj.Hull = hull
		}
		fused = append(fused, obj)
	}

	frame := "ego"
	if n.havePose {
		frame = "map"
	}
	nc := float64(len(clusters.Objects))
	na := float64(associations)
	w := work.Work{
		FPOps:        nc*220 + na*30,
		IntOps:       nc*60 + na*18,
		LoadOps:      nc*90 + na*14,
		StoreOps:     nc * 45,
		BranchOps:    nc*25 + na*6,
		BytesTouched: nc*720 + na*64 + 4096,
	}
	return ros.Result{
		Outputs: []ros.Output{{
			Topic:   TopicObjects,
			Payload: &msgs.DetectedObjectArray{Objects: fused},
			FrameID: frame,
		}},
		Work:        w,
		FusedInputs: []*ros.Message{n.lastVision},
	}
}
