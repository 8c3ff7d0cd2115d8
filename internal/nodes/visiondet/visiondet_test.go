package visiondet

import (
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/testenv"
	"repro/internal/world"
)

func frameWithActorAhead(t testing.TB, kind world.ActorKind, dist float64) *msgs.CameraImage {
	t.Helper()
	s := testenv.Scenario()
	snap := s.At(0)
	ego := snap.Ego.Pose
	p := ego.Transform(geom.V3(dist, 0, 0))
	snap.Actors = []world.ActorState{{
		ID: 1, Kind: kind,
		Pose: geom.NewPose(p.X, p.Y, 0, ego.Yaw),
		Dim:  kind.Dimensions(),
	}}
	return &msgs.CameraImage{Frame: testenv.Camera().Capture(&snap)}
}

func TestDetectsCarFromPixels(t *testing.T) {
	n := NewSSD512()
	img := frameWithActorAhead(t, world.KindCar, 12)
	res := n.Process(&ros.Message{Topic: TopicImageRaw, Payload: img}, 0)
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicObjects {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	arr := res.Outputs[0].Payload.(*msgs.DetectedObjectArray)
	if len(arr.Objects) == 0 {
		t.Fatal("no detections on a clear car")
	}
	found := false
	for _, o := range arr.Objects {
		if o.Label == msgs.LabelCar && o.HasImageRect {
			found = true
			// Rough overlap with ground truth.
			if len(img.Frame.GT) > 0 && o.ImageRect.IoU(img.Frame.GT[0].Rect) < 0.2 {
				t.Errorf("poor localization: IoU %.2f", o.ImageRect.IoU(img.Frame.GT[0].Rect))
			}
		}
	}
	if !found {
		t.Errorf("car label missing: %+v", arr.Objects)
	}
}

func TestDetectsPedestrian(t *testing.T) {
	n := NewYOLOv3()
	img := frameWithActorAhead(t, world.KindPedestrian, 8)
	res := n.Process(&ros.Message{Payload: img}, 0)
	arr := res.Outputs[0].Payload.(*msgs.DetectedObjectArray)
	found := false
	for _, o := range arr.Objects {
		if o.Label == msgs.LabelPedestrian {
			found = true
		}
	}
	if !found {
		t.Errorf("pedestrian missed: %+v", arr.Objects)
	}
}

func TestWorkloadReflectsArchitecture(t *testing.T) {
	img := frameWithActorAhead(t, world.KindCar, 15)
	msg := &ros.Message{Payload: img}
	r512 := NewSSD512().Process(msg, 0)
	r300 := NewSSD300().Process(msg, 0)
	ry := NewYOLOv3().Process(msg, 0)
	if r512.Work.GPUFMAs() <= ry.Work.GPUFMAs() || ry.Work.GPUFMAs() <= r300.Work.GPUFMAs() {
		t.Errorf("GPU FMA ordering wrong: 512=%.3g yolo=%.3g 300=%.3g",
			r512.Work.GPUFMAs(), ry.Work.GPUFMAs(), r300.Work.GPUFMAs())
	}
	if r512.Work.CPUOps() <= ry.Work.CPUOps() {
		t.Errorf("SSD512 CPU side should dominate YOLO: %.3g vs %.3g",
			r512.Work.CPUOps(), ry.Work.CPUOps())
	}
}

func TestNames(t *testing.T) {
	if NewSSD512().Name() != "vision_detection" {
		t.Error("node name mismatch")
	}
	if NewSSD512().ArchName() != "SSD512" || NewYOLOv3().ArchName() != "YOLOv3-416" {
		t.Error("arch name mismatch")
	}
	subs := NewSSD300().Subscribes()
	if len(subs) != 1 || subs[0].Topic != TopicImageRaw || subs[0].Depth != 1 {
		t.Errorf("subs = %+v", subs)
	}
}

func TestIgnoresWrongPayload(t *testing.T) {
	n := NewSSD300()
	short := &msgs.CameraImage{Frame: &sensor.Frame{Image: &sensor.Image{W: 4, H: 4, Pix: make([]float32, 3*4*4-1)}}}
	for _, p := range []any{42, short} {
		if res := n.Process(&ros.Message{Payload: p}, 0); len(res.Outputs) != 0 || res.Work.CPUOps() != 0 {
			t.Errorf("payload %T should produce nothing", p)
		}
	}
}

// TestProcessWorkIsArchitectureCost: every frame reports the full-size
// architecture's cost, equal to a freshly built one, even after a
// consumer appended to the kernel list of an earlier frame's Work.
func TestProcessWorkIsArchitectureCost(t *testing.T) {
	img := frameWithActorAhead(t, world.KindCar, 15)
	for _, n := range []*Node{NewSSD300(), NewSSD512(), NewYOLOv3()} {
		want := n.cfg.Arch.CPUWork()
		want.Kernels = n.cfg.Arch.GPUKernels()
		for i := 0; i < 3; i++ {
			res := n.Process(&ros.Message{Payload: img}, 0)
			if !reflect.DeepEqual(res.Work, want) {
				t.Fatalf("%s frame %d: Work differs from the architecture's cost", n.ArchName(), i)
			}
			res.Work.Kernels = append(res.Work.Kernels, res.Work.Kernels[0])
		}
	}
}

// BenchmarkVisionProcess times the SSD512 node on one camera frame:
// inference, message assembly and the work report.
func BenchmarkVisionProcess(b *testing.B) {
	n := NewSSD512()
	msg := &ros.Message{Topic: TopicImageRaw, Payload: frameWithActorAhead(b, world.KindCar, 12)}
	n.Process(msg, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Process(msg, 0)
	}
}

func TestPanicsWithoutArch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestLabelMapping(t *testing.T) {
	for i, name := range dnn.ClassNames {
		l := labelFor(i)
		if string(l) != name {
			t.Errorf("label %d: %s != %s", i, l, name)
		}
	}
}
