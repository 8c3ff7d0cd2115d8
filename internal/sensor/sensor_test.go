package sensor

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/world"
)

func testScenario() *world.Scenario {
	cfg := world.DefaultScenarioConfig()
	return world.NewScenario(cfg)
}

func TestLiDARScanProducesPoints(t *testing.T) {
	s := testScenario()
	l := NewLiDAR(DefaultLiDARConfig(), s.City)
	snap := s.At(10)
	cloud := l.Scan(&snap)
	if cloud.Len() < 500 {
		t.Fatalf("scan too sparse: %d points", cloud.Len())
	}
	// All points within max range of the sensor origin (ego frame, the
	// mount offset is small).
	for _, p := range cloud.Points {
		if p.Pos.Norm() > l.Config().MaxRange+3 {
			t.Fatalf("point beyond range: %v", p.Pos)
		}
		if p.Ring < 0 || p.Ring >= l.Config().Beams {
			t.Fatalf("bad ring: %d", p.Ring)
		}
	}
}

func TestLiDARGroundPointsPresent(t *testing.T) {
	s := testScenario()
	l := NewLiDAR(DefaultLiDARConfig(), s.City)
	snap := s.At(5)
	cloud := l.Scan(&snap)
	ground := 0
	for _, p := range cloud.Points {
		// Ego frame: sensor is ~1.9m up, ground points land near z=0
		// relative to the ego base.
		if p.Pos.Z < 0.3 {
			ground++
		}
	}
	if ground < cloud.Len()/10 {
		t.Errorf("expected substantial ground returns, got %d/%d", ground, cloud.Len())
	}
}

func TestLiDARSeesNearbyActor(t *testing.T) {
	s := testScenario()
	cfg := DefaultLiDARConfig()
	cfg.DropProb = 0
	cfg.RangeNoise = 0
	l := NewLiDAR(cfg, s.City)

	// Build a snapshot with a car 10m ahead of the ego.
	snap := s.At(0)
	ego := snap.Ego.Pose
	ahead := ego.Transform(geom.V3(10, 0, 0))
	snap.Actors = []world.ActorState{{
		ID: 1, Kind: world.KindCar,
		Pose: geom.NewPose(ahead.X, ahead.Y, 0, ego.Yaw),
		Dim:  world.KindCar.Dimensions(),
	}}
	cloud := l.Scan(&snap)
	// Points on the car body: in ego frame near x=8..12, |y|<1, z in body.
	hits := 0
	for _, p := range cloud.Points {
		if p.Pos.X > 6 && p.Pos.X < 13 && math.Abs(p.Pos.Y) < 1.2 && p.Pos.Z > 0.05 && p.Pos.Z < 1.6 {
			hits++
		}
	}
	if hits < 5 {
		t.Errorf("expected returns on the car body, got %d", hits)
	}
}

func TestLiDARDeterminism(t *testing.T) {
	s := testScenario()
	snap := s.At(33)
	a := NewLiDAR(DefaultLiDARConfig(), s.City).Scan(&snap)
	b := NewLiDAR(DefaultLiDARConfig(), s.City).Scan(&snap)
	if a.Len() != b.Len() {
		t.Fatalf("scan lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("scan points differ between identical configs")
		}
	}
}

func TestLiDARPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLiDAR(LiDARConfig{Beams: 0, AzimuthSteps: 10}, nil)
}

func TestCameraCaptureBasics(t *testing.T) {
	s := testScenario()
	cam := NewCamera(DefaultCameraConfig(), s.City)
	snap := s.At(20)
	f := cam.Capture(&snap)
	if f.Image.W != 128 || f.Image.H != 96 {
		t.Fatalf("image dims %dx%d", f.Image.W, f.Image.H)
	}
	// Pixels in range.
	for _, v := range f.Image.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %v", v)
		}
	}
}

func TestCameraSeesActorAhead(t *testing.T) {
	s := testScenario()
	cam := NewCamera(DefaultCameraConfig(), s.City)
	snap := s.At(0)
	ego := snap.Ego.Pose
	ahead := ego.Transform(geom.V3(15, 0, 0))
	snap.Actors = []world.ActorState{{
		ID: 7, Kind: world.KindPedestrian,
		Pose: geom.NewPose(ahead.X, ahead.Y, 0, ego.Yaw),
		Dim:  world.KindPedestrian.Dimensions(),
	}}
	f := cam.Capture(&snap)
	if len(f.GT) != 1 {
		t.Fatalf("GT boxes = %d, want 1", len(f.GT))
	}
	gt := f.GT[0]
	if gt.ActorID != 7 || gt.Kind != world.KindPedestrian {
		t.Errorf("GT = %+v", gt)
	}
	// Pedestrian color signature: blue channel dominates inside the box.
	cpt := gt.Rect.Center()
	x, y := int(cpt.X), int(cpt.Y)
	r, b := f.Image.At(0, x, y), f.Image.At(2, x, y)
	if b <= r {
		t.Errorf("pedestrian pixel should be blue-dominant: r=%v b=%v", r, b)
	}
}

func TestCameraActorBehindNotVisible(t *testing.T) {
	s := testScenario()
	cam := NewCamera(DefaultCameraConfig(), s.City)
	snap := s.At(0)
	ego := snap.Ego.Pose
	behind := ego.Transform(geom.V3(-15, 0, 0))
	snap.Actors = []world.ActorState{{
		ID: 3, Kind: world.KindCar,
		Pose: geom.NewPose(behind.X, behind.Y, 0, ego.Yaw),
		Dim:  world.KindCar.Dimensions(),
	}}
	f := cam.Capture(&snap)
	if len(f.GT) != 0 {
		t.Errorf("actor behind camera should be invisible, GT = %+v", f.GT)
	}
}

func TestCameraFartherActorSmaller(t *testing.T) {
	s := testScenario()
	cam := NewCamera(DefaultCameraConfig(), s.City)
	area := func(dist float64) float64 {
		snap := s.At(0)
		ego := snap.Ego.Pose
		p := ego.Transform(geom.V3(dist, 0, 0))
		snap.Actors = []world.ActorState{{
			ID: 1, Kind: world.KindCar,
			Pose: geom.NewPose(p.X, p.Y, 0, ego.Yaw),
			Dim:  world.KindCar.Dimensions(),
		}}
		f := cam.Capture(&snap)
		if len(f.GT) != 1 {
			t.Fatalf("GT missing at dist %v", dist)
		}
		return f.GT[0].Rect.Area()
	}
	if a10, a30 := area(10), area(30); a30 >= a10 {
		t.Errorf("area should shrink with distance: %v vs %v", a10, a30)
	}
}

func TestGNSSNoiseScale(t *testing.T) {
	s := testScenario()
	g := NewGNSS(2.0, 99)
	snap := s.At(50)
	sumSq := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		fix := g.Fix(&snap)
		sumSq += fix.Pos.XY().DistSq(snap.Ego.Pose.XY())
	}
	// E[dx^2+dy^2] = 2*sigma^2 = 8.
	rms := sumSq / n
	if rms < 6 || rms > 10 {
		t.Errorf("GNSS error power = %v, want ~8", rms)
	}
}

func TestIMUYawRate(t *testing.T) {
	s := testScenario()
	m := NewIMU(7)
	// Feed successive snapshots while ego turns; yaw rate should track
	// the ground-truth difference.
	var lastYaw float64
	var ok bool
	for ts := 0.0; ts < 60; ts += 0.02 {
		snap := s.At(ts)
		samp := m.Sample(&snap)
		if ts > 0 {
			want := geom.AngleDiff(snap.Ego.Pose.Yaw, lastYaw) / 0.02
			if math.Abs(samp.YawRate-want) < 0.1 {
				ok = true
			}
		}
		lastYaw = snap.Ego.Pose.Yaw
	}
	if !ok {
		t.Error("IMU yaw rate never tracked ground truth")
	}
}

func TestImageAtSet(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 2, 0.5)
	if im.At(2, 1, 2) != 0.5 {
		t.Error("At/Set round trip failed")
	}
	if im.At(0, 1, 2) != 0 {
		t.Error("other channel affected")
	}
}

// BenchmarkLiDARScan measures one full revolution through live traffic:
// the ray cast against the city grid and the actor boxes.
func BenchmarkLiDARScan(b *testing.B) {
	s := testScenario()
	l := NewLiDAR(DefaultLiDARConfig(), s.City)
	snaps := make([]world.Snapshot, 8)
	for i := range snaps {
		snaps[i] = s.At(float64(5 + 10*i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Scan(&snaps[i%len(snaps)])
	}
}
