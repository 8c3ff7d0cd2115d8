package pointcloud_test

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/pointcloud"
	"repro/internal/testenv"
)

// packable reports whether every coordinate of k lies inside the
// grid's packable range, (-2^20, 2^20).
func packable(k pointcloud.VoxelKey) bool {
	in := func(c int32) bool { return c > -1<<20 && c < 1<<20 }
	return in(k.X) && in(k.Y) && in(k.Z)
}

// neighborhood returns the 27 keys of k's 3x3x3 neighborhood.
func neighborhood(k pointcloud.VoxelKey) []pointcloud.VoxelKey {
	out := make([]pointcloud.VoxelKey, 0, 27)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				out = append(out, pointcloud.VoxelKey{X: k.X + dx, Y: k.Y + dy, Z: k.Z + dz})
			}
		}
	}
	return out
}

// edgeKeys returns keys at the packable range's edges, on one axis and
// on all three: ±(2^20-1), which pack, and ±2^20 and beyond, which do
// not. math.MinInt32 is a NaN point's key on amd64.
func edgeKeys() []pointcloud.VoxelKey {
	var out []pointcloud.VoxelKey
	for _, c := range []int32{1<<20 - 1, -(1<<20 - 1), 1 << 20, -(1 << 20), 1<<20 + 1, -(1<<20 + 1), 1 << 21, math.MaxInt32, math.MinInt32} {
		out = append(out,
			pointcloud.VoxelKey{X: c}, pointcloud.VoxelKey{Y: c}, pointcloud.VoxelKey{Z: c},
			pointcloud.VoxelKey{X: c, Y: c, Z: c})
	}
	return out
}

// gridCounts tallies what a reference comparison covered: occupied
// voxels by kind, and the probed keys that pack but hold no usable
// voxel and those that do not pack.
type gridCounts struct {
	usable, sparse, degenerate, outside int
	absent, unpackable                  int
}

// requireReferenceGrid fails unless g, built from c, holds exactly the
// reference build's usable voxels with packable keys, bit for bit and
// in first-touch order, and Lookup answers as the reference does for
// every occupied voxel, every key of its 3x3x3 neighborhood and every
// key in extra: the record carrying the reference voxel's key, mean
// and six inverse-covariance terms where the reference has a usable
// voxel with a packable key, nil everywhere else.
func requireReferenceGrid(t *testing.T, name string, g *pointcloud.VoxelGrid, c *pointcloud.Cloud, leaf float64, minPoints int, extra []pointcloud.VoxelKey) gridCounts {
	t.Helper()
	var n gridCounts
	want := map[pointcloud.VoxelKey]*pointcloud.VoxelStats{}
	ref := map[pointcloud.VoxelKey]pointcloud.RefVoxelStats{}
	refs := pointcloud.ReferenceVoxelStats(c, leaf, minPoints)
	for _, r := range refs {
		ref[r.Key] = r
		switch {
		case r.N < minPoints:
			n.sparse++
		case !r.OK:
			n.degenerate++
		case !packable(r.Key):
			n.outside++
		default:
			if n.usable >= g.Len() || !pointcloud.SameVoxelBits(g.Voxels[n.usable], r) {
				t.Fatalf("%s: usable voxel %v is not at first-touch position %d", name, r.Key, n.usable)
			}
			want[r.Key] = &g.Voxels[n.usable]
			n.usable++
		}
	}
	if n.usable != g.Len() {
		t.Fatalf("%s: grid has %d voxels, reference has %d usable", name, g.Len(), n.usable)
	}
	probe := func(k pointcloud.VoxelKey) {
		got, w := g.Lookup(k), want[k]
		if got != w {
			r, occupied := ref[k]
			t.Fatalf("%s: Lookup(%v) = %+v, want %+v (reference occupied %t: %+v)", name, k, got, w, occupied, r)
		}
		if w == nil {
			if packable(k) {
				n.absent++
			} else {
				n.unpackable++
			}
		}
	}
	for _, r := range refs {
		for _, k := range neighborhood(r.Key) {
			probe(k)
		}
	}
	for _, k := range extra {
		probe(k)
	}
	return n
}

// TestVoxelGridMatchesMapReference builds statistics grids from three
// clouds, and checks each against the full reference build behind a Go
// map: the grid must hold exactly the reference's usable voxels, bit
// for bit and in first-touch order, each with its key and with six
// inverse-covariance terms that equal the reference's full inverse in
// both triangles, and Lookup must find each of them and nothing else:
// not a sparse voxel, not a degenerate one, not one outside the
// packable range, not an unoccupied key. The clouds are a random one
// with voxels of every kind, the shared HD map's sweep, and a small one
// whose voxels all share one tag and one first slot, so every probe
// among them has to compare keys.
func TestVoxelGridMatchesMapReference(t *testing.T) {
	const leaf, minPoints = 2.0, 4
	t.Run("random", func(t *testing.T) {
		rng := mathx.NewRNG(37)
		c := pointcloud.New(20011)
		for i := 0; i < 20000; i++ {
			c.Append(pointcloud.Point{Pos: geom.V3(rng.Range(-30, 30), rng.Range(-30, 30), rng.Range(-1, 5))})
		}
		// Five coincident points: populous enough, but the covariance
		// stays singular after regularization.
		for i := 0; i < 5; i++ {
			c.Append(pointcloud.Point{Pos: geom.V3(100.1, 100.1, 100.1)})
		}
		// A spread voxel 2,200 km out along x, beyond the packable range.
		for _, d := range cellOffsets {
			c.Append(pointcloud.Point{Pos: geom.V3(2.2e6+d.X, 10+d.Y, 1+d.Z)})
		}
		n := requireReferenceGrid(t, "random cloud", pointcloud.BuildVoxelStats(c, leaf, minPoints), c, leaf, minPoints, edgeKeys())
		if n.usable == 0 || n.sparse == 0 || n.degenerate == 0 || n.outside == 0 || n.absent == 0 || n.unpackable == 0 {
			t.Fatalf("random cloud covered %+v; the check needs each", n)
		}
	})
	t.Run("map", func(t *testing.T) {
		sw := testenv.Sweep()
		n := requireReferenceGrid(t, "shared map", testenv.Map().NDT, sw.Cloud, sw.NDTLeaf, sw.MinVoxelPoints, edgeKeys())
		if n.usable == 0 || n.absent == 0 || n.unpackable == 0 {
			t.Fatalf("shared map covered %+v; the check needs each", n)
		}
	})
	t.Run("shared-tag", func(t *testing.T) {
		// Collect keys whose probes start at the first key's slot of
		// the 64-slot table and carry its tag; the grid holds the
		// first twelve, and the rest are probed absent.
		const size, present, absent = 64, 12, 8
		home, tag := pointcloud.HomeAndTag(pointcloud.VoxelKey{}, size)
		var keys []pointcloud.VoxelKey
		for x := int32(-300); x <= 300 && len(keys) < present+absent; x++ {
			for y := int32(-300); y <= 300 && len(keys) < present+absent; y++ {
				for z := int32(-3); z <= 3 && len(keys) < present+absent; z++ {
					k := pointcloud.VoxelKey{X: x, Y: y, Z: z}
					if h, tg := pointcloud.HomeAndTag(k, size); h == home && tg == tag {
						keys = append(keys, k)
					}
				}
			}
		}
		if len(keys) < present+absent {
			t.Fatalf("found %d keys sharing a slot and tag, want %d", len(keys), present+absent)
		}
		c := pointcloud.New(present * len(cellOffsets))
		for _, k := range keys[:present] {
			o := geom.V3(float64(k.X)*leaf, float64(k.Y)*leaf, float64(k.Z)*leaf)
			for _, d := range cellOffsets {
				c.Append(pointcloud.Point{Pos: o.Add(d)})
			}
		}
		g := pointcloud.BuildVoxelStats(c, leaf, minPoints)
		if slots, _ := pointcloud.TableOf(g); len(slots) != size {
			t.Fatalf("grid of %d voxels has %d slots, want %d", g.Len(), len(slots), size)
		}
		n := requireReferenceGrid(t, "shared-tag cloud", g, c, leaf, minPoints, keys[present:])
		if n.usable != present {
			t.Fatalf("shared-tag grid holds %d usable voxels, want %d", n.usable, present)
		}
	})
}

// cellOffsets places six points inside a 2 m voxel, off any plane, so
// their covariance inverts.
var cellOffsets = []geom.Vec3{
	geom.V3(0.2, 0.3, 0.4), geom.V3(1.7, 0.5, 0.9), geom.V3(0.6, 1.8, 0.3),
	geom.V3(1.1, 1.2, 1.7), geom.V3(0.4, 0.9, 1.2), geom.V3(1.5, 1.6, 0.6),
}
