// Package visiondet implements the image-based detection nodes
// (vision_ssd_detect / vision_yolo_detect). Each node wraps a dnn
// Detector: the functional reduced-scale network really processes the
// camera pixels, while the full-size architecture's analytic workload
// drives the GPU/CPU timing — preserving the SSD512 ≫ YOLOv3 ≈ SSD300
// cost ordering the paper's entire characterization pivots on.
package visiondet

import (
	"time"

	"repro/internal/dnn"
	"repro/internal/msgs"
	"repro/internal/ros"
	"repro/internal/work"
)

// Topic names owned by this package.
const (
	TopicImageRaw = "/image_raw"
	TopicObjects  = "/detection/image_detector/objects"
)

// Config parameterizes a vision detector node.
type Config struct {
	// Arch selects the full-size model (dnn.ArchSSD300 / ArchSSD512 /
	// ArchYOLOv3).
	Arch dnn.Arch
	// ScoreThreshold drops low-confidence detections.
	ScoreThreshold float64
	QueueDepth     int
	Seed           uint64
}

// DefaultConfig returns the configuration for an architecture.
func DefaultConfig(arch dnn.Arch) Config {
	return Config{Arch: arch, ScoreThreshold: 0.5, QueueDepth: 1, Seed: 0xDE7EC7}
}

// Node is a vision detection node.
type Node struct {
	cfg Config
	det *dnn.Detector
	// work is the full-size architecture's cost of one frame, the same
	// for every frame. Its kernel slice is clipped to its length, so an
	// append by any consumer copies instead of writing into it.
	work work.Work
}

// New builds the node.
func New(cfg Config) *Node {
	if cfg.Arch.Name == "" {
		panic("visiondet: config needs an architecture")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	w := cfg.Arch.CPUWork()
	k := cfg.Arch.GPUKernels()
	w.Kernels = k[:len(k):len(k)]
	return &Node{cfg: cfg, det: dnn.NewDetector(cfg.Arch, cfg.Seed), work: w}
}

// Name implements ros.Node. The paper's plots label this node
// "vision_detection" regardless of the algorithm; we keep the algorithm
// visible in the name's suffixless form for Table/Figure rendering.
func (n *Node) Name() string { return "vision_detection" }

// ArchName returns the architecture identifier (SSD300/SSD512/YOLOv3-416).
func (n *Node) ArchName() string { return n.cfg.Arch.Name }

// Subscribes implements ros.Node.
func (n *Node) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: TopicImageRaw, Depth: n.cfg.QueueDepth}}
}

// labelFor maps the functional detector's class index to a message label.
func labelFor(class int) msgs.ObjectLabel {
	switch dnn.ClassNames[class] {
	case "car":
		return msgs.LabelCar
	case "truck":
		return msgs.LabelTruck
	case "pedestrian":
		return msgs.LabelPedestrian
	case "cyclist":
		return msgs.LabelCyclist
	default:
		return msgs.LabelUnknown
	}
}

// Process implements ros.Node.
func (n *Node) Process(in *ros.Message, _ time.Duration) ros.Result {
	img, ok := in.Payload.(*msgs.CameraImage)
	if !ok {
		return ros.Result{}
	}
	// Infer only reads its input, so the frame's pixels are used in place.
	// A frame whose pixel count disagrees with its size (possible from a
	// recorded bag) is dropped like a payload of the wrong type.
	im := img.Frame.Image
	if im.W <= 0 || im.H <= 0 || len(im.Pix) != 3*im.W*im.H {
		return ros.Result{}
	}
	dets := n.det.Infer(&dnn.Tensor{C: 3, H: im.H, W: im.W, Data: im.Pix})

	objects := make([]msgs.DetectedObject, 0, len(dets))
	for i, d := range dets {
		if d.Score < n.cfg.ScoreThreshold {
			continue
		}
		objects = append(objects, msgs.DetectedObject{
			ID:           i + 1,
			Label:        labelFor(d.Class),
			Score:        d.Score,
			ImageRect:    d.Rect,
			HasImageRect: true,
		})
	}

	return ros.Result{
		Outputs: []ros.Output{{
			Topic:   TopicObjects,
			Payload: &msgs.DetectedObjectArray{Objects: objects},
			FrameID: "camera",
		}},
		Work: n.work,
	}
}

// NewSSD300 returns a detector node modeling SSD300.
func NewSSD300() *Node { return New(DefaultConfig(dnn.ArchSSD300)) }

// NewSSD512 returns a detector node modeling SSD512.
func NewSSD512() *Node { return New(DefaultConfig(dnn.ArchSSD512)) }

// NewYOLOv3 returns a detector node modeling YOLOv3-416.
func NewYOLOv3() *Node { return New(DefaultConfig(dnn.ArchYOLOv3)) }
