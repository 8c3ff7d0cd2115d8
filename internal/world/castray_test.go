package world

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// bruteCastRay is the reference the grid walk must reproduce bit for
// bit: the ground plane plus every building, no index.
func bruteCastRay(c *City, origin, dir geom.Vec3, maxRange float64) (float64, bool) {
	best, hit := maxRange, false
	if dir.Z < -1e-9 {
		if t := -origin.Z / dir.Z; t > 0 && t < best {
			best, hit = t, true
		}
	}
	for _, b := range c.Buildings {
		if t, ok := b.Box.RayHit(origin, dir, best); ok && t < best {
			best, hit = t, true
		}
	}
	return best, hit
}

// TestCastRayMatchesBruteForce fires LiDAR-like rays from street level
// and awkward rays (axis-parallel, near-vertical, from outside the
// city, from negative coordinates) and requires the indexed walk to
// agree exactly with the brute-force scan.
func TestCastRayMatchesBruteForce(t *testing.T) {
	cities := []*City{NewCity(DefaultCityConfig())}
	gen := DefaultCityConfig()
	gen.Blocks, gen.BlockSize, gen.StreetWidth, gen.Seed, gen.FurnitureSeed = 5, 73, 11, 99, 7
	cities = append(cities, NewCity(gen))
	rng := mathx.NewRNG(2024)
	for ci, c := range cities {
		size := c.Size()
		hits := 0
		for i := 0; i < 40000; i++ {
			origin := geom.V3(rng.Range(-60, size+60), rng.Range(-60, size+60), rng.Range(0.2, 35))
			if i%4 == 0 {
				// Snap to a street so the ray starts outside buildings.
				origin.X = c.StreetCenter(rng.Intn(c.Blocks + 1))
				origin.Z = 1.9
			}
			var dir geom.Vec3
			switch i % 10 {
			case 0:
				dir = geom.V3(1, 0, 0)
			case 1:
				dir = geom.V3(0, -1, 0)
			case 2:
				dir = geom.V3(1e-13, 1, -0.05)
			case 3:
				dir = geom.V3(rng.Range(-1e-3, 1e-3), rng.Range(-1e-3, 1e-3), -1)
			default:
				az := rng.Range(-math.Pi, math.Pi)
				el := rng.Range(-0.3, 0.2)
				dir = geom.V3(math.Cos(az)*math.Cos(el), math.Sin(az)*math.Cos(el), math.Sin(el))
			}
			maxRange := rng.Range(5, 200)
			gotT, gotHit := c.CastRay(origin, dir, maxRange)
			wantT, wantHit := bruteCastRay(c, origin, dir, maxRange)
			if gotT != wantT || gotHit != wantHit {
				t.Fatalf("city %d ray %d from %v dir %v range %v: got (%v, %v), want (%v, %v)",
					ci, i, origin, dir, maxRange, gotT, gotHit, wantT, wantHit)
			}
			if gotHit {
				hits++
			}
		}
		if hits == 0 {
			t.Fatalf("city %d: no ray hit anything", ci)
		}
	}
}

func TestCastRayAllocatesNothing(t *testing.T) {
	c := NewCity(DefaultCityConfig())
	origin := geom.V3(c.StreetCenter(2), c.StreetCenter(3)+2, 1.9)
	dir := geom.V3(math.Cos(0.3), math.Sin(0.3), -0.02)
	if n := testing.AllocsPerRun(100, func() { c.CastRay(origin, dir, 80) }); n != 0 {
		t.Errorf("CastRay allocates %v times per ray", n)
	}
}

func BenchmarkCastRay(b *testing.B) {
	c := NewCity(DefaultCityConfig())
	rng := mathx.NewRNG(5)
	const n = 4096
	origins := make([]geom.Vec3, n)
	dirs := make([]geom.Vec3, n)
	for i := range origins {
		origins[i] = geom.V3(c.StreetCenter(rng.Intn(c.Blocks+1)), rng.Range(0, c.Size()), 1.9)
		az := rng.Range(-math.Pi, math.Pi)
		el := rng.Range(-15, 10) * math.Pi / 180
		dirs[i] = geom.V3(math.Cos(az)*math.Cos(el), math.Sin(az)*math.Cos(el), math.Sin(el))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CastRay(origins[i%n], dirs[i%n], 80)
	}
}
