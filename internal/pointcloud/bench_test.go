package pointcloud

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// benchCloud synthesizes a LiDAR-sized cloud: points scattered through
// a street-scale box, large enough to span several voxel blocks.
func benchCloud(n int) *Cloud {
	rng := mathx.NewRNG(42)
	c := New(n)
	for i := 0; i < n; i++ {
		c.Append(Point{
			Pos: geom.V3(
				rng.Float64()*120-60,
				rng.Float64()*120-60,
				rng.Float64()*6-1,
			),
			Intensity: rng.Float64(),
			Ring:      i % 16,
		})
	}
	return c
}

// BenchmarkVoxelGrid measures the steady-state cost of the pooled,
// block-folded voxel downsample with a reused destination cloud — the
// voxel_grid_filter hot path.
func BenchmarkVoxelGrid(b *testing.B) {
	c := benchCloud(30000)
	var dst *Cloud
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = VoxelDownsampleInto(c, 2.0, dst)
	}
	if dst.Len() == 0 {
		b.Fatal("empty downsample")
	}
}

// BenchmarkKDTreeBuild measures Rebuild on a retained tree — the
// euclidean_cluster per-frame index build.
func BenchmarkKDTreeBuild(b *testing.B) {
	c := benchCloud(30000)
	pts := make([]geom.Vec3, c.Len())
	for i, p := range c.Points {
		pts[i] = p.Pos
	}
	tree := NewKDTree(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Rebuild(pts)
	}
	if tree.Len() != len(pts) {
		b.Fatalf("tree len = %d", tree.Len())
	}
}

// BenchmarkKDTreeRadius measures the query side on the rebuilt tree.
func BenchmarkKDTreeRadius(b *testing.B) {
	c := benchCloud(30000)
	pts := make([]geom.Vec3, c.Len())
	for i, p := range c.Points {
		pts[i] = p.Pos
	}
	tree := NewKDTree(pts)
	var out []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tree.Radius(pts[i%len(pts)], 1.5, out[:0])
	}
}
