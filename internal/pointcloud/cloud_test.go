package pointcloud

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

func TestCloudBasics(t *testing.T) {
	c := New(4)
	if c.Len() != 0 {
		t.Error("new cloud not empty")
	}
	c.Append(Point{Pos: geom.V3(1, 2, 3), Intensity: 0.5, Ring: 2})
	c.Append(Point{Pos: geom.V3(3, 2, 1)})
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
	cen := c.Centroid()
	if cen != geom.V3(2, 2, 2) {
		t.Errorf("centroid = %v", cen)
	}
	b := c.Bounds()
	if b.Min != geom.V3(1, 2, 1) || b.Max != geom.V3(3, 2, 3) {
		t.Errorf("bounds = %+v", b)
	}
}

func TestCloudEmptyCentroidAndBounds(t *testing.T) {
	c := New(0)
	if c.Centroid() != (geom.Vec3{}) {
		t.Error("empty centroid should be zero")
	}
	if c.Bounds().Valid() {
		t.Error("empty bounds should be invalid")
	}
}

func TestCloudClone(t *testing.T) {
	c := FromPositions([]geom.Vec3{geom.V3(1, 0, 0)})
	d := c.Clone()
	d.Points[0].Pos.X = 99
	if c.Points[0].Pos.X != 1 {
		t.Error("clone aliases original")
	}
}

func TestCloudTransform(t *testing.T) {
	c := FromPositions([]geom.Vec3{geom.V3(1, 0, 0)})
	p := geom.NewPose(10, 0, 5, math.Pi/2)
	w := c.Transform(p)
	got := w.Points[0].Pos
	if math.Abs(got.X-10) > 1e-9 || math.Abs(got.Y-1) > 1e-9 || got.Z != 5 {
		t.Errorf("transformed = %v", got)
	}
	// Original untouched.
	if c.Points[0].Pos != geom.V3(1, 0, 0) {
		t.Error("transform mutated input")
	}
}

func TestVoxelDownsample(t *testing.T) {
	c := New(8)
	// Two clusters in distinct voxels of size 1.
	c.Append(Point{Pos: geom.V3(0.1, 0.1, 0.1), Intensity: 1})
	c.Append(Point{Pos: geom.V3(0.3, 0.3, 0.3), Intensity: 3})
	c.Append(Point{Pos: geom.V3(5.1, 0.1, 0.1), Intensity: 5})
	out, cells := VoxelDownsample(c, 1.0)
	if cells != 2 || out.Len() != 2 {
		t.Fatalf("cells = %d, len = %d", cells, out.Len())
	}
	// One output point should be the centroid (0.2, 0.2, 0.2) with mean
	// intensity 2.
	found := false
	for _, p := range out.Points {
		if p.Pos.Dist(geom.V3(0.2, 0.2, 0.2)) < 1e-9 {
			found = true
			if math.Abs(p.Intensity-2) > 1e-9 {
				t.Errorf("intensity = %v", p.Intensity)
			}
		}
	}
	if !found {
		t.Errorf("centroid point missing: %+v", out.Points)
	}
}

func TestVoxelDownsampleNegativeCoords(t *testing.T) {
	c := FromPositions([]geom.Vec3{
		geom.V3(-0.1, -0.1, 0), geom.V3(-0.9, -0.9, 0), // same voxel [-1,0)
		geom.V3(0.1, 0.1, 0), // different voxel
	})
	_, cells := VoxelDownsample(c, 1.0)
	if cells != 2 {
		t.Errorf("cells = %d, want 2 (floor semantics across zero)", cells)
	}
}

func TestVoxelDownsampleReducesCount(t *testing.T) {
	rng := mathx.NewRNG(5)
	c := New(1000)
	for i := 0; i < 1000; i++ {
		c.Append(Point{Pos: geom.V3(rng.Range(0, 10), rng.Range(0, 10), rng.Range(0, 2))})
	}
	out, _ := VoxelDownsample(c, 2.0)
	if out.Len() >= c.Len() {
		t.Errorf("downsample did not reduce: %d -> %d", c.Len(), out.Len())
	}
	// Larger leaf -> fewer points.
	out2, _ := VoxelDownsample(c, 5.0)
	if out2.Len() > out.Len() {
		t.Errorf("larger leaf should not yield more points: %d vs %d", out2.Len(), out.Len())
	}
}

func TestVoxelDownsamplePanicsOnBadLeaf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for leaf <= 0")
		}
	}()
	VoxelDownsample(New(0), 0)
}

func TestBuildVoxelStats(t *testing.T) {
	rng := mathx.NewRNG(7)
	c := New(300)
	// A tight Gaussian blob inside one voxel.
	for i := 0; i < 300; i++ {
		c.Append(Point{Pos: geom.V3(
			5+rng.NormScaled(0, 0.2),
			5+rng.NormScaled(0, 0.2),
			0.5+rng.NormScaled(0, 0.1),
		)})
	}
	stats := BuildVoxelStats(c, 10.0, 5)
	if stats.Len() == 0 {
		t.Fatal("no voxels")
	}
	population := map[VoxelKey]int{}
	for _, p := range c.Points {
		population[KeyFor(p.Pos, 10.0)]++
	}
	var main *VoxelStats
	mainPop := 0
	stats.ForEach(func(k VoxelKey, vs *VoxelStats) {
		if main == nil || population[k] > mainPop {
			main, mainPop = vs, population[k]
		}
	})
	if stats.Lookup(KeyFor(geom.V3(5, 5, 0.5), 10.0)) != main {
		t.Fatal("the blob's voxel should be usable and indexed")
	}
	if main.Mean.Dist(geom.V3(5, 5, 0.5)) > 0.1 {
		t.Errorf("voxel mean = %v", main.Mean)
	}
	// Mahalanobis at the mean is ~0 and grows with distance.
	d0 := main.MahalanobisSq(main.Mean)
	d1 := main.MahalanobisSq(main.Mean.Add(geom.V3(1, 0, 0)))
	if d0 > 1e-6 || d1 <= d0 {
		t.Errorf("mahalanobis: at mean %v, offset %v", d0, d1)
	}
}

func TestBuildVoxelStatsMinPoints(t *testing.T) {
	c := FromPositions([]geom.Vec3{geom.V3(0, 0, 0), geom.V3(0.1, 0, 0)})
	stats := BuildVoxelStats(c, 1.0, 5)
	if stats.Len() != 0 || stats.Lookup(KeyFor(geom.V3(0, 0, 0), 1.0)) != nil {
		t.Error("voxel with 2 points should not be kept with minPoints=5")
	}
}

func TestInvert3(t *testing.T) {
	m := [3][3]float64{{2, 0, 0}, {0, 4, 0}, {0, 0, 8}}
	inv, ok := invert3(m)
	if !ok {
		t.Fatal("diagonal matrix should invert")
	}
	if inv[0][0] != 0.5 || inv[1][1] != 0.25 || inv[2][2] != 0.125 {
		t.Errorf("inv = %v", inv)
	}
	if _, ok := invert3([3][3]float64{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}); ok {
		t.Error("singular matrix should not invert")
	}
}
