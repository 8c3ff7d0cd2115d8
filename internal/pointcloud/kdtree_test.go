package pointcloud

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mathx"
)

func randomPoints(rng *mathx.RNG, n int, span float64) []geom.Vec3 {
	pts := make([]geom.Vec3, n)
	for i := range pts {
		pts[i] = geom.V3(rng.Range(-span, span), rng.Range(-span, span), rng.Range(-span, span))
	}
	return pts
}

func bruteRadius(pts []geom.Vec3, q geom.Vec3, r float64) []int32 {
	var out []int32
	r2 := r * r
	for i, p := range pts {
		if p.DistSq(q) <= r2 {
			out = append(out, int32(i))
		}
	}
	return out
}

func sortedEq(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKDTreeEmpty(t *testing.T) {
	tree := NewKDTree(nil)
	if got := tree.Radius(geom.V3(0, 0, 0), 1, nil); len(got) != 0 {
		t.Errorf("empty radius = %v", got)
	}
	if tree.Len() != 0 {
		t.Errorf("len = %d", tree.Len())
	}
}

func TestKDTreeRadiusMatchesBruteForce(t *testing.T) {
	rng := mathx.NewRNG(13)
	pts := randomPoints(rng, 500, 20)
	tree := NewKDTree(pts)
	for trial := 0; trial < 50; trial++ {
		q := geom.V3(rng.Range(-20, 20), rng.Range(-20, 20), rng.Range(-20, 20))
		r := rng.Range(0.5, 8)
		got := tree.Radius(q, r, nil)
		want := bruteRadius(pts, q, r)
		if !sortedEq(got, want) {
			t.Fatalf("radius mismatch at trial %d: got %d, want %d points", trial, len(got), len(want))
		}
	}
}

// TestKDTreeRadiusFindsNearest queries at the distance of each query's
// nearest point, the tightest radius that finds anything, and requires
// the brute-force answer, the nearest point among it.
func TestKDTreeRadiusFindsNearest(t *testing.T) {
	rng := mathx.NewRNG(17)
	pts := randomPoints(rng, 300, 15)
	tree := NewKDTree(pts)
	for trial := 0; trial < 50; trial++ {
		q := geom.V3(rng.Range(-15, 15), rng.Range(-15, 15), rng.Range(-15, 15))
		best, bestD2 := int32(-1), 0.0
		for i, p := range pts {
			if d2 := p.DistSq(q); best < 0 || d2 < bestD2 {
				best, bestD2 = int32(i), d2
			}
		}
		r := math.Nextafter(math.Sqrt(bestD2), math.Inf(1))
		got, want := tree.Radius(q, r, nil), bruteRadius(pts, q, r)
		if !slices.Contains(got, best) || !sortedEq(got, want) {
			t.Fatalf("trial %d: radius %v = %v, want %v holding nearest point %d", trial, r, got, want, best)
		}
	}
}

func TestKDTreeSinglePoint(t *testing.T) {
	tree := NewKDTree([]geom.Vec3{geom.V3(1, 2, 3)})
	if got := tree.Radius(geom.V3(1, 2, 4), 1, nil); len(got) != 1 || got[0] != 0 {
		t.Errorf("radius 1 at distance 1 = %v", got)
	}
	if got := tree.Radius(geom.V3(1, 2, 4), 0.99, nil); len(got) != 0 {
		t.Errorf("radius 0.99 at distance 1 = %v", got)
	}
	got := tree.Radius(geom.V3(1, 2, 3), 0.5, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("radius = %v", got)
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []geom.Vec3{
		geom.V3(1, 1, 1), geom.V3(1, 1, 1), geom.V3(1, 1, 1), geom.V3(5, 5, 5),
	}
	tree := NewKDTree(pts)
	got := tree.Radius(geom.V3(1, 1, 1), 0.1, nil)
	if len(got) != 3 {
		t.Errorf("duplicates: got %d points", len(got))
	}
}

func TestKDTreeTraversalCounter(t *testing.T) {
	rng := mathx.NewRNG(29)
	tree := NewKDTree(randomPoints(rng, 200, 10))
	tree.ResetCounters()
	if tree.TraversalSteps != 0 {
		t.Error("counter should reset")
	}
	tree.Radius(geom.V3(0, 0, 0), 2, nil)
	if tree.TraversalSteps == 0 {
		t.Error("counter should advance during query")
	}
}

func TestKDTreeRadiusReusesSlice(t *testing.T) {
	pts := []geom.Vec3{geom.V3(0, 0, 0), geom.V3(1, 0, 0)}
	tree := NewKDTree(pts)
	buf := make([]int32, 0, 16)
	out := tree.Radius(geom.V3(0, 0, 0), 5, buf)
	if len(out) != 2 {
		t.Errorf("radius with buffer = %v", out)
	}
}

func TestKDTreePropertyRandomized(t *testing.T) {
	rng := mathx.NewRNG(41)
	f := func() bool {
		n := 1 + rng.Intn(100)
		pts := randomPoints(rng, n, 5)
		tree := NewKDTree(pts)
		q := geom.V3(rng.Range(-5, 5), rng.Range(-5, 5), rng.Range(-5, 5))
		r := rng.Range(0, 5)
		return sortedEq(tree.Radius(q, r, nil), bruteRadius(pts, q, r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
