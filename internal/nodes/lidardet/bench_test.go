package lidardet

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/pointcloud"
)

// BenchmarkCluster measures steady-state Extract on a traffic-like
// scene: a ring of object blobs plus scattered clutter, reusing one
// node so the retained k-d tree and visit scratch amortize.
func BenchmarkCluster(b *testing.B) {
	rng := mathx.NewRNG(21)
	cloud := pointcloud.New(0)
	for i := 0; i < 12; i++ {
		ang := float64(i) * 0.5
		center := geom.V3(20*math.Cos(ang), 20*math.Sin(ang), 1)
		blob(cloud, rng, center, 400, 0.3)
	}
	for i := 0; i < 3000; i++ {
		cloud.Append(pointcloud.Point{Pos: geom.V3(
			rng.Float64()*80-40, rng.Float64()*80-40, rng.Float64()*2,
		)})
	}
	n := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if objs := n.Extract(cloud); len(objs) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkExtractDrive measures steady-state Extract over the ground
// filter's output for the first 25 s of the scripted drive, one cloud
// per iteration in drive order, reusing one node as the stack does.
// The synthetic BenchmarkCluster scene does not stand for these clouds.
func BenchmarkExtractDrive(b *testing.B) {
	clouds := noGroundDrive()
	n := New(DefaultConfig())
	for _, c := range clouds {
		n.Extract(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Extract(clouds[i%len(clouds)])
	}
}
