package lidardet

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/testenv"
)

// blob appends a Gaussian cluster of n points around center.
func blob(c *pointcloud.Cloud, rng *mathx.RNG, center geom.Vec3, n int, spread float64) {
	for i := 0; i < n; i++ {
		c.Append(pointcloud.Point{Pos: geom.V3(
			center.X+rng.NormScaled(0, spread),
			center.Y+rng.NormScaled(0, spread),
			center.Z+rng.NormScaled(0, spread),
		)})
	}
}

func TestExtractSeparatesTwoBlobs(t *testing.T) {
	rng := mathx.NewRNG(7)
	cloud := pointcloud.New(100)
	blob(cloud, rng, geom.V3(5, 0, 1), 40, 0.15)
	blob(cloud, rng, geom.V3(12, 6, 1), 40, 0.15)
	n := New(DefaultConfig())
	objs := n.Extract(cloud)
	if len(objs) != 2 {
		t.Fatalf("clusters = %d, want 2", len(objs))
	}
	// Centroids near the blob centers.
	for _, o := range objs {
		d1 := o.Pose.XY().Dist(geom.V2(5, 0))
		d2 := o.Pose.XY().Dist(geom.V2(12, 6))
		if d1 > 0.5 && d2 > 0.5 {
			t.Errorf("cluster centroid %v matches neither blob", o.Pose.XY())
		}
		if o.PointCount < 30 {
			t.Errorf("cluster size = %d", o.PointCount)
		}
		if o.Label != msgs.LabelUnknown {
			t.Errorf("clusters must be unlabeled, got %s", o.Label)
		}
		if len(o.Hull) < 3 {
			t.Errorf("hull = %v", o.Hull)
		}
	}
}

func TestExtractRespectsMinPoints(t *testing.T) {
	rng := mathx.NewRNG(9)
	cloud := pointcloud.New(50)
	blob(cloud, rng, geom.V3(5, 0, 1), 40, 0.15)
	// Lone outlier points.
	cloud.Append(pointcloud.Point{Pos: geom.V3(20, 20, 1)})
	cloud.Append(pointcloud.Point{Pos: geom.V3(-15, 10, 1)})
	n := New(DefaultConfig())
	objs := n.Extract(cloud)
	if len(objs) != 1 {
		t.Errorf("clusters = %d, want 1 (outliers filtered)", len(objs))
	}
}

func TestExtractRangeGate(t *testing.T) {
	rng := mathx.NewRNG(11)
	cloud := pointcloud.New(50)
	blob(cloud, rng, geom.V3(100, 0, 1), 40, 0.15) // beyond MaxRange
	n := New(DefaultConfig())
	if objs := n.Extract(cloud); len(objs) != 0 {
		t.Errorf("far blob should be gated out, got %d clusters", len(objs))
	}
}

func TestExtractEmptyCloud(t *testing.T) {
	n := New(DefaultConfig())
	if objs := n.Extract(pointcloud.New(0)); objs != nil {
		t.Errorf("empty cloud should produce nil, got %v", objs)
	}
}

func TestExtractMergesWithinTolerance(t *testing.T) {
	// Two blobs closer than the tolerance merge into one cluster.
	rng := mathx.NewRNG(13)
	cloud := pointcloud.New(100)
	blob(cloud, rng, geom.V3(5, 0, 1), 30, 0.1)
	blob(cloud, rng, geom.V3(5.5, 0, 1), 30, 0.1)
	n := New(DefaultConfig())
	objs := n.Extract(cloud)
	if len(objs) != 1 {
		t.Errorf("adjacent blobs should merge: got %d", len(objs))
	}
}

func TestProcessOnRealScan(t *testing.T) {
	s := testenv.Scenario()
	snap := s.At(35)
	raw := testenv.LiDAR().Scan(&snap)
	rg := filters.NewRayGround(filters.DefaultRayGroundConfig())
	_, noGround := rg.Split(raw)

	n := New(DefaultConfig())
	res := n.Process(&ros.Message{Payload: &msgs.PointCloud{Cloud: noGround}}, 0)
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicObjects {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	arr := res.Outputs[0].Payload.(*msgs.DetectedObjectArray)
	if len(arr.Objects) == 0 {
		t.Error("no clusters on a real scan with buildings around")
	}
	if res.Work.CPUOps() <= 0 {
		t.Error("work not accounted")
	}
	if len(res.Work.Kernels) != 1 {
		t.Errorf("GPU-assist kernel missing: %+v", res.Work.Kernels)
	}
	// The k-d tree's node visits drive the work model: past the
	// per-point and per-object terms, IntOps carries 14 and
	// BytesTouched 72 per visit.
	pts := float64(noGround.Len())
	trav := (res.Work.IntOps - 30*pts) / 14
	if trav < 1 || trav != math.Trunc(trav) || res.Work.BytesTouched != 72*trav+48*pts+2048*float64(len(arr.Objects)) {
		t.Errorf("work %+v does not carry a traversal count (%v visits)", res.Work, trav)
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Tolerance: 0, MinPoints: 1})
}
