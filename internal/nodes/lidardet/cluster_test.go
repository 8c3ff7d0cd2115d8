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

	// The gate drops points with a NaN Z too: a cloud with some gives
	// exactly the objects of the same cloud without them.
	for seed := uint64(1); seed <= 50; seed++ {
		rng := mathx.NewRNG(seed)
		withNaN, finite := pointcloud.New(300), pointcloud.New(300)
		for i := 0; i < 300; i++ {
			p := pointcloud.Point{Pos: geom.V3(rng.Range(-10, 10), rng.Range(-10, 10), rng.Range(0, 2))}
			if i%10 == 0 {
				p.Pos.Z = math.NaN()
			} else {
				finite.Append(p)
			}
			withNaN.Append(p)
		}
		want := New(DefaultConfig()).Extract(finite)
		if diff := sameObjects(n.Extract(withNaN), want); diff != "" {
			t.Fatalf("seed %d: the cloud with NaN-Z points differs from the cloud without them in %s", seed, diff)
		}
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
	for _, cfg := range []Config{
		{Tolerance: 0, MinPoints: 1},
		{Tolerance: -1, MinPoints: 1},
		{Tolerance: math.NaN(), MinPoints: 1},
		{Tolerance: math.Inf(1), MinPoints: 1},
		{Tolerance: 0.8, MinPoints: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestGridCellsBounded checks that the grid of unvisited points never
// has more cells than the cloud has points, however small the
// tolerance against the cloud's extent, and that its cells stay wider
// than the tolerance.
func TestGridCellsBounded(t *testing.T) {
	rng := mathx.NewRNG(5)
	cloud := pointcloud.New(0)
	for i := 0; i < 500; i++ {
		cloud.Append(pointcloud.Point{Pos: geom.V3(rng.Range(-1e6, 1e6), rng.Range(-1e6, 1e6), 1)})
	}
	for _, tol := range []float64{1e-300, 1e-9, 0.8, 1e5, 1e200} {
		cfg := DefaultConfig()
		cfg.Tolerance, cfg.MaxRange = tol, math.Inf(1)
		c := New(cfg)
		c.Extract(cloud)
		g := &c.cols
		if cells := g.nx * g.ny; cells > cloud.Len() {
			t.Errorf("tolerance %g: %d×%d cells for %d points", tol, g.nx, g.ny, cloud.Len())
		}
		if g.inv != 0 && !(1/g.inv > tol) {
			t.Errorf("tolerance %g: cells %g wide", tol, 1/g.inv)
		}
	}
}

// TestExtractMatchesReference runs Extract and the per-query reference
// over every 0.1 s no-ground cloud of the scripted drive's first 25 s,
// at three tolerances and three cluster caps, the smaller two of which
// break region growing early. The objects must be equal bit for bit and
// lastTraversal must equal the reference queries' steps.
func TestExtractMatchesReference(t *testing.T) {
	clouds := noGroundDrive()
	for _, tol := range []float64{0.3, 0.8, 2.5} {
		for _, maxPoints := range []int{4000, 50, 7} {
			cfg := DefaultConfig()
			cfg.Tolerance, cfg.MaxPoints = tol, maxPoints
			node := New(cfg)
			for f, cloud := range clouds {
				want, steps := referenceExtract(cfg, cloud)
				got := node.Extract(cloud)
				if diff := sameObjects(got, want); diff != "" || node.lastTraversal != steps {
					t.Fatalf("tolerance %v, MaxPoints %d, cloud %d: %q differs; %d traversal steps, want %d",
						tol, maxPoints, f, diff, node.lastTraversal, steps)
				}
			}
		}
	}
}

// fuzzCloud decodes a fuzz input as points of three little-endian int16
// coordinates each, in units of unit meters. A Z of -32768, 32767 or
// -32767 reads as NaN, +Inf or -Inf.
func fuzzCloud(data []byte, unit float64) *pointcloud.Cloud {
	c := pointcloud.New(len(data) / 6)
	for ; len(data) >= 6; data = data[6:] {
		v := func(k int) int16 { return int16(uint16(data[2*k]) | uint16(data[2*k+1])<<8) }
		z := float64(v(2)) * unit
		switch v(2) {
		case math.MinInt16:
			z = math.NaN()
		case math.MaxInt16:
			z = math.Inf(1)
		case math.MinInt16 + 1:
			z = math.Inf(-1)
		}
		c.Append(pointcloud.Point{Pos: geom.V3(float64(v(0))*unit, float64(v(1))*unit, z)})
	}
	return c
}

// fuzzPoints encodes points for fuzzCloud.
func fuzzPoints(pts ...[3]int16) []byte {
	var b []byte
	for _, p := range pts {
		for _, v := range p {
			b = append(b, byte(v), byte(uint16(v)>>8))
		}
	}
	return b
}

// FuzzExtractMatchesReference checks Extract against the per-query
// reference on arbitrary clouds, tolerances, cluster bounds and ranges,
// twice on one node so that no scratch state carries between calls.
func FuzzExtractMatchesReference(f *testing.F) {
	const u = 1.0 / 64
	// Pairs exactly one tolerance (16 units) apart on each side of a
	// cell boundary; the cells are 16·(1+2^-16) units wide from the
	// cloud's minimum, since the duplicates of the origin keep the cell
	// count within the point count.
	origin := [3]int16{0, 0, 0}
	f.Add(fuzzPoints(origin, origin, origin, origin, origin, origin,
		[3]int16{8, 0, 0}, [3]int16{24, 0, 0}, [3]int16{0, 40, 0}, [3]int16{0, 56, 0}), u, 16*u, uint16(4000), uint8(1), 45.0)
	// A chain across four boundaries, cut by a Z step; MaxPoints breaks
	// its longer part.
	f.Add(fuzzPoints([3]int16{0, 0, 0}, [3]int16{15, 0, 0}, [3]int16{31, 0, 3}, [3]int16{47, 0, 0}, [3]int16{63, 0, 0}, [3]int16{79, 0, 0}), u, 16*u, uint16(2), uint8(2), 45.0)
	// Branches under a tight MaxPoints: which points get queried, and so
	// the step count, follows the order matches are pushed in.
	var star [][3]int16
	for k := int16(0); k < 5; k++ {
		star = append(star, [3]int16{100 + 10*k, 100, 0}, [3]int16{100 - 10*k, 100, 1}, [3]int16{100, 100 + 10*k, 2}, [3]int16{100, 100 - 10*k, 3})
	}
	f.Add(fuzzPoints(star...), u, 16*u, uint16(4), uint8(1), 45.0)
	// Duplicate points.
	f.Add(fuzzPoints([3]int16{5, 5, 5}, [3]int16{5, 5, 5}, [3]int16{5, 5, 5}, [3]int16{6, 5, 5}, [3]int16{300, 5, 5}, [3]int16{300, 5, 5}), u, 2*u, uint16(4000), uint8(1), 45.0)
	// NaN and ±Inf Z, among points that cluster.
	nanInf := fuzzPoints([3]int16{0, 0, 0}, [3]int16{1, 0, math.MinInt16}, [3]int16{2, 0, 0}, [3]int16{3, 0, math.MaxInt16},
		[3]int16{4, 0, 0}, [3]int16{5, 0, math.MinInt16 + 1}, [3]int16{6, 0, 0}, [3]int16{7, 1, math.MinInt16}, [3]int16{8, 1, 0})
	f.Add(nanInf, u, 3*u, uint16(4000), uint8(1), 45.0)
	f.Add(nanInf, u, 1e200, uint16(4000), uint8(1), math.Inf(1))
	// A dense blob in which every third Z is NaN: the range gate drops
	// those points, whose NaN splits would leave points within the
	// tolerance where the pruned walk never looks.
	var blob [][3]int16
	for k := int16(0); k < 64; k++ {
		z := k % 4
		if k%3 == 0 {
			z = math.MinInt16
		}
		blob = append(blob, [3]int16{k % 8, k / 8, z})
	}
	f.Add(fuzzPoints(blob...), u, 2*u, uint16(4000), uint8(1), 45.0)
	// Tolerances far below and far above the cloud's extent.
	spread := fuzzPoints([3]int16{-900, 300, 10}, [3]int16{-899, 301, 10}, [3]int16{0, 0, 0}, [3]int16{1, 1, 1},
		[3]int16{700, -700, 5}, [3]int16{702, -700, 5}, [3]int16{32000, -32000, 0})
	f.Add(spread, 0.1, 1e-9, uint16(4000), uint8(1), 1e9)
	f.Add(spread, 0.1, 1e6, uint16(4000), uint8(1), 1e9)
	f.Add(spread, 0.1, 0.15, uint16(1), uint8(1), 1e9)
	f.Fuzz(func(t *testing.T, data []byte, unit, tol float64, maxPoints uint16, minPoints uint8, maxRange float64) {
		if !(tol > 0 && tol <= math.MaxFloat64) || minPoints == 0 || len(data) > 6*2000 {
			t.Skip()
		}
		cfg := Config{Tolerance: tol, MinPoints: int(minPoints), MaxPoints: int(maxPoints), MaxRange: maxRange}
		cloud := fuzzCloud(data, unit)
		want, steps := referenceExtract(cfg, cloud)
		node := New(cfg)
		for run := 0; run < 2; run++ {
			got := node.Extract(cloud)
			if diff := sameObjects(got, want); diff != "" || node.lastTraversal != steps {
				t.Fatalf("run %d: %q differs; %d traversal steps, want %d", run, diff, node.lastTraversal, steps)
			}
		}
	})
}
