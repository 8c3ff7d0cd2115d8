package localization

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/sensor"
	"repro/internal/testenv"
)

func filteredScanAt(t *testing.T, at float64) (*pointcloud.Cloud, geom.Pose) {
	t.Helper()
	s := testenv.Scenario()
	snap := s.At(at)
	raw := testenv.LiDAR().Scan(&snap)
	filtered, _ := pointcloud.VoxelDownsample(raw, 2.0)
	return filtered, snap.Ego.Pose
}

func newTestNode(t *testing.T) *NDTMatching {
	t.Helper()
	return New(DefaultConfig(), testenv.Map())
}

func TestNDTAlignRecoversPerturbation(t *testing.T) {
	n := newTestNode(t)
	cloud, truth := filteredScanAt(t, 25)
	// Start from a perturbed pose; alignment should pull it back.
	init := geom.Pose{
		Pos: truth.Pos.Add(geom.V3(1.2, -0.8, 0)),
		Yaw: geom.WrapAngle(truth.Yaw + 0.06),
	}
	pose, fitness, iters, matched, _ := n.align(cloud, init)
	if matched < 50 {
		t.Fatalf("too few matches: %d", matched)
	}
	errPos := pose.XY().Dist(truth.XY())
	errYaw := math.Abs(geom.AngleDiff(pose.Yaw, truth.Yaw))
	initErr := init.XY().Dist(truth.XY())
	if errPos > initErr/2 {
		t.Errorf("alignment did not improve position: %.3f -> %.3f m", initErr, errPos)
	}
	if errPos > 0.8 {
		t.Errorf("position error %.3f m too large", errPos)
	}
	if errYaw > 0.05 {
		t.Errorf("yaw error %.4f rad too large", errYaw)
	}
	if iters < 1 || fitness <= 0 {
		t.Errorf("iters=%d fitness=%v", iters, fitness)
	}
}

// TestNDTAlignConvergesInBasin pins the matcher's basin of
// convergence over the scripted drive: from offsets up to 1.08 m and
// 0.04 rad, align stops on Epsilon before MaxIterations and ends within
// 1 cm and 1e-3 rad of the truth. From TestNDTAlignRecoversPerturbation's
// 1.44 m it runs into the iteration cap instead (DESIGN.md §4b).
func TestNDTAlignConvergesInBasin(t *testing.T) {
	offsets := []struct{ dx, dy, dyaw float64 }{
		{0.3, -0.2, 0.01},
		{0.9, -0.6, 0.04},
	}
	for _, at := range []float64{25, 40, 60} {
		cloud, truth := filteredScanAt(t, at)
		for _, o := range offsets {
			t.Run(fmt.Sprintf("t=%gs/off=%g,%g,%g", at, o.dx, o.dy, o.dyaw), func(t *testing.T) {
				n := newTestNode(t)
				init := geom.Pose{
					Pos: truth.Pos.Add(geom.V3(o.dx, o.dy, 0)),
					Yaw: geom.WrapAngle(truth.Yaw + o.dyaw),
				}
				pose, _, iters, _, _ := n.align(cloud, init)
				if iters >= n.cfg.MaxIterations {
					t.Errorf("ran %d of %d iterations without meeting Epsilon", iters, n.cfg.MaxIterations)
				}
				if d := pose.XY().Dist(truth.XY()); d > 0.01 {
					t.Errorf("position error %.4f m, want < 0.01", d)
				}
				if d := math.Abs(geom.AngleDiff(pose.Yaw, truth.Yaw)); d > 1e-3 {
					t.Errorf("yaw error %.5f rad, want < 1e-3", d)
				}
			})
		}
	}
}

func TestNDTAlignIsStableAtTruth(t *testing.T) {
	n := newTestNode(t)
	cloud, truth := filteredScanAt(t, 60)
	pose, _, _, _, _ := n.align(cloud, truth)
	if pose.XY().Dist(truth.XY()) > 0.5 {
		t.Errorf("truth pose drifted to %v (truth %v)", pose.Pos, truth.Pos)
	}
}

func TestNDTNodeLifecycle(t *testing.T) {
	n := newTestNode(t)
	if n.Name() != "ndt_matching" {
		t.Error("name mismatch")
	}
	if len(n.Subscribes()) != 3 {
		t.Errorf("subs = %+v", n.Subscribes())
	}
	if _, ok := n.Pose(); ok {
		t.Error("should start uninitialized")
	}

	cloud, truth := filteredScanAt(t, 25)
	stamp := 25 * time.Second

	// Scan before GNSS: no pose output.
	res := n.Process(&ros.Message{
		Header:  ros.Header{Stamp: stamp},
		Payload: &msgs.PointCloud{Cloud: cloud},
	}, stamp)
	if len(res.Outputs) != 0 {
		t.Error("should not localize before GNSS init")
	}

	// GNSS fix near truth.
	n.Process(&ros.Message{Payload: &msgs.GNSS{Fix: sensor.GNSSFix{
		Pos: truth.Pos.Add(geom.V3(1.5, -1, 0)),
	}}}, stamp)

	// Now the scan should produce a pose.
	res = n.Process(&ros.Message{
		Header:  ros.Header{Stamp: stamp + 100*time.Millisecond},
		Payload: &msgs.PointCloud{Cloud: cloud},
	}, stamp+100*time.Millisecond)
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicCurrentPose {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	ps := res.Outputs[0].Payload.(*msgs.PoseStamped)
	if ps.Iterations < 1 {
		t.Error("no iterations recorded")
	}
	pose, ok := n.Pose()
	if !ok {
		t.Fatal("should be initialized")
	}
	if pose.XY().Dist(truth.XY()) > 2.5 {
		t.Errorf("bootstrap pose error = %.2f m", pose.XY().Dist(truth.XY()))
	}
	if res.Work.CPUOps() <= 0 {
		t.Error("work not accounted")
	}
}

func TestNDTTracksMotion(t *testing.T) {
	n := newTestNode(t)
	s := testenv.Scenario()
	lidar := testenv.LiDAR()
	imu := sensor.NewIMU(3)
	gnss := sensor.NewGNSS(2, 4)

	var maxErr float64
	localized := 0
	for ts := 20.0; ts < 30; ts += 0.1 {
		snap := s.At(ts)
		stamp := time.Duration(ts * float64(time.Second))
		n.Process(&ros.Message{
			Header:  ros.Header{Stamp: stamp},
			Payload: &msgs.IMU{Sample: imu.Sample(&snap)},
		}, stamp)
		if int(ts*10)%10 == 0 {
			n.Process(&ros.Message{
				Header:  ros.Header{Stamp: stamp},
				Payload: &msgs.GNSS{Fix: gnss.Fix(&snap)},
			}, stamp)
		}
		raw := lidar.Scan(&snap)
		filtered, _ := pointcloud.VoxelDownsample(raw, 2.0)
		res := n.Process(&ros.Message{
			Header:  ros.Header{Stamp: stamp},
			Payload: &msgs.PointCloud{Cloud: filtered},
		}, stamp)
		if len(res.Outputs) == 0 {
			continue
		}
		localized++
		pose := res.Outputs[0].Payload.(*msgs.PoseStamped).Pose
		if err := pose.XY().Dist(snap.Ego.Pose.XY()); err > maxErr {
			maxErr = err
		}
	}
	if localized < 80 {
		t.Fatalf("localized only %d frames", localized)
	}
	if maxErr > 2.0 {
		t.Errorf("max tracking error %.2f m (want < 2.0: centimeter-level is the paper's claim, meter-level is our acceptance with a noisy synthetic rig)", maxErr)
	}
}

func TestNDTWorkGrowsWithIterations(t *testing.T) {
	n := newTestNode(t)
	cloud, truth := filteredScanAt(t, 25)
	// Converged-at-truth run.
	_, _, itA, _, _ := n.align(cloud, truth)
	// Perturbed run should need at least as many iterations.
	_, _, itB, _, _ := n.align(cloud, geom.Pose{
		Pos: truth.Pos.Add(geom.V3(2, 2, 0)),
		Yaw: truth.Yaw + 0.1,
	})
	if itB < itA {
		t.Errorf("perturbed alignment used fewer iterations: %d < %d", itB, itA)
	}
}

// BenchmarkNDTAlign measures one alignment of a filtered testenv scan
// from a perturbed pose, the ndt_matching hot loop.
func BenchmarkNDTAlign(b *testing.B) {
	n := New(DefaultConfig(), testenv.Map())
	s := testenv.Scenario()
	snap := s.At(25)
	cloud, _ := pointcloud.VoxelDownsample(testenv.LiDAR().Scan(&snap), 2.0)
	truth := snap.Ego.Pose
	init := geom.Pose{Pos: truth.Pos.Add(geom.V3(0.3, -0.2, 0)), Yaw: truth.Yaw + 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.align(cloud, init)
	}
}

func TestNDTPanicsOnNilMap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(DefaultConfig(), nil)
}

var _ = filters.TopicFilteredPoints // silence unused-import lint in builds without tags
