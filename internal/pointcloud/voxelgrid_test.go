package pointcloud_test

import (
	"math"
	"slices"
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

// rankLess reports whether a comes before b in a grid's record order:
// by tile (x, then y, then z), then within the tile by z, then y, then
// x.
func rankLess(a, b pointcloud.VoxelKey) bool {
	ra := [6]int32{a.X >> 3, a.Y >> 3, a.Z >> 3, a.Z & 7, a.Y & 7, a.X & 7}
	rb := [6]int32{b.X >> 3, b.Y >> 3, b.Z >> 3, b.Z & 7, b.Y & 7, b.X & 7}
	for i := range ra {
		if ra[i] != rb[i] {
			return ra[i] < rb[i]
		}
	}
	return false
}

// requireReferenceGrid fails unless g, built from c, holds exactly the
// reference build's usable voxels with packable keys: ForEach visits
// each once, in Voxels order, which is rank order, at its key and with
// the reference's bits. Lookup must answer as the reference does for
// every occupied voxel, every key of its 3x3x3 neighborhood and every
// key in extra: the record ForEach visited at that key where the
// reference has a usable voxel with a packable key, nil everywhere
// else. Direct7 at each of those keys must return what Lookup finds at
// the key and its six face neighbours, in that order.
func requireReferenceGrid(t *testing.T, name string, g *pointcloud.VoxelGrid, c *pointcloud.Cloud, leaf float64, minPoints int, extra []pointcloud.VoxelKey) gridCounts {
	t.Helper()
	var n gridCounts
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
			n.usable++
		}
	}
	want := map[pointcloud.VoxelKey]*pointcloud.VoxelStats{}
	var prev pointcloud.VoxelKey
	g.ForEach(func(k pointcloud.VoxelKey, vs *pointcloud.VoxelStats) {
		r, occupied := ref[k]
		if !occupied || r.N < minPoints || !r.OK || !packable(k) {
			t.Fatalf("%s: grid holds voxel %v, which the reference does not keep (occupied %t: %+v)", name, k, occupied, r)
		}
		if !pointcloud.SameVoxelBits(*vs, r) {
			t.Fatalf("%s: voxel %v = %+v, reference %+v", name, k, *vs, r)
		}
		if i := len(want); i >= g.Len() || vs != &g.Voxels[i] || (i > 0 && !rankLess(prev, k)) {
			t.Fatalf("%s: voxel %v is not record %d in rank order", name, k, i)
		}
		want[k], prev = vs, k
	})
	if len(want) != n.usable || g.Len() != n.usable {
		t.Fatalf("%s: grid has %d voxels and visits %d, reference has %d usable", name, g.Len(), len(want), n.usable)
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
		var direct []*pointcloud.VoxelStats
		for _, d := range []pointcloud.VoxelKey{{}, {X: -1}, {X: 1}, {Y: -1}, {Y: 1}, {Z: -1}, {Z: 1}} {
			if vs := g.Lookup(pointcloud.VoxelKey{X: k.X + d.X, Y: k.Y + d.Y, Z: k.Z + d.Z}); vs != nil {
				direct = append(direct, vs)
			}
		}
		if got := g.Direct7(k, nil); !slices.Equal(got, direct) {
			t.Fatalf("%s: Direct7(%v) = %v, want %v", name, k, got, direct)
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
// for bit and in rank order, each at its key and with six
// inverse-covariance terms that equal the reference's full inverse in
// both triangles, and Lookup must find each of them and nothing else:
// not a sparse voxel, not a degenerate one, not one outside the
// packable range, not an unoccupied key. The clouds are a random one
// with voxels of every kind, the shared HD map's sweep, and one built
// on tile boundaries, so probes cross from tile to tile and meet clear
// bits in occupied tiles.
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
	t.Run("tile-boundary", func(t *testing.T) {
		// Voxels at local coordinates 7 and 0 on both sides of the
		// tile boundaries at -8, 0 and 8 on every axis, a third of them
		// sparse, and one full tile at negative x and z.
		c := pointcloud.New(0)
		edge := []float64{-9, -8, -1, 0, 7, 8}
		kinds := []int{spread, spread, sparse}
		i := 0
		for _, x := range edge {
			for _, y := range edge {
				for _, z := range edge {
					appendCell(c, geom.V3(x, y, z), kinds[i%3], leaf)
					i++
				}
			}
		}
		full := fullTile(pointcloud.VoxelKey{X: -24, Y: 16, Z: -8})
		for _, k := range full {
			appendCell(c, geom.V3(float64(k.X), float64(k.Y), float64(k.Z)), spread, leaf)
		}
		g := pointcloud.BuildVoxelStats(c, leaf, minPoints)
		n := requireReferenceGrid(t, "tile-boundary cloud", g, c, leaf, minPoints, edgeKeys())
		if want := 2*len(edge)*len(edge)*len(edge)/3 + len(full); n.usable != want || n.sparse == 0 || n.absent == 0 {
			t.Fatalf("tile-boundary grid covered %+v, want %d usable and some sparse and absent keys", n, want)
		}
		tileSet := map[pointcloud.VoxelKey]bool{}
		g.ForEach(func(k pointcloud.VoxelKey, _ *pointcloud.VoxelStats) {
			tileSet[pointcloud.VoxelKey{X: k.X >> 3, Y: k.Y >> 3, Z: k.Z >> 3}] = true
		})
		if tiles, _, slots, _ := pointcloud.GridLayout(g); tiles != len(tileSet) || 4*tiles > 3*slots {
			t.Fatalf("grid has %d tiles behind %d slots, want %d tiles at load <= 3/4", tiles, slots, len(tileSet))
		}
	})
}

// Kinds of generated voxel.
const (
	spread     = iota // six points off any plane: usable
	sparse            // three points: too few
	coincident        // five points in one place: singular covariance
)

// appendCell appends to c the points of one voxel of the given kind
// whose lowest corner is o, in cells, at the given leaf. Coordinates
// stay float64, so a corner past the int32 range gets the key a scan
// point there would.
func appendCell(c *pointcloud.Cloud, o geom.Vec3, kind int, leaf float64) {
	switch kind {
	case sparse:
		for _, d := range cellOffsets[:3] {
			c.Append(pointcloud.Point{Pos: o.Add(d.Scale(0.5)).Scale(leaf)})
		}
	case coincident:
		for i := 0; i < 5; i++ {
			c.Append(pointcloud.Point{Pos: o.Add(cellOffsets[0].Scale(0.5)).Scale(leaf)})
		}
	default:
		for _, d := range cellOffsets {
			c.Append(pointcloud.Point{Pos: o.Add(d.Scale(0.5)).Scale(leaf)})
		}
	}
}

// fullTile returns the 512 keys of the tile whose lowest corner is o.
func fullTile(o pointcloud.VoxelKey) []pointcloud.VoxelKey {
	out := make([]pointcloud.VoxelKey, 0, 512)
	for x := int32(0); x < 8; x++ {
		for y := int32(0); y < 8; y++ {
			for z := int32(0); z < 8; z++ {
				out = append(out, pointcloud.VoxelKey{X: o.X + x, Y: o.Y + y, Z: o.Z + z})
			}
		}
	}
	return out
}

// fuzzLeaves are the leaf sizes FuzzVoxelGridLookup builds at.
var fuzzLeaves = []float64{2, 0.5, 1, 3.7}

// FuzzVoxelGridLookup builds a grid from a small generated cloud and
// compares it with the reference build (requireReferenceGrid). Each
// three bytes of cells place one voxel at an offset from (ox, oy, oz):
// x and y from the first two bytes as int8, z from the top six bits of
// the third, and its low two bits its kind: spread, sparse,
// coincident, or spread again for 3. The seeds cover local
// coordinates 0 and 7 on each axis, negative coordinates, a full tile,
// and voxels across the packable range's edges, ±(2^20-1) and ±2^20,
// and at math.MinInt32 and math.MaxInt32.
func FuzzVoxelGridLookup(f *testing.F) {
	corners := func(o int8) []byte {
		var b []byte
		for _, x := range []int8{o - 1, o, o + 7, o + 8} {
			for _, y := range []int8{o - 1, o, o + 7, o + 8} {
				for i, z := range []int8{-9, -8, -1, 0, 7, 8} {
					b = append(b, byte(x), byte(y), byte(z)<<2|byte(i%3))
				}
			}
		}
		return b
	}
	var full []byte
	for _, k := range fullTile(pointcloud.VoxelKey{X: -8, Y: 8, Z: 0}) {
		full = append(full, byte(int8(k.X)), byte(int8(k.Y)), byte(int8(k.Z))<<2)
	}
	f.Add(corners(0), int32(0), int32(0), int32(0), uint8(0))
	f.Add(corners(-16), int32(-3), int32(5), int32(-40), uint8(1))
	f.Add(full, int32(-64), int32(0), int32(-8), uint8(2))
	f.Add(corners(1), int32(1<<20-1), int32(-(1 << 20)), int32(1<<20-8), uint8(3))
	f.Add(corners(1), int32(-(1 << 20)), int32(1<<20-1), int32(-(1<<20)+1), uint8(0))
	f.Add(corners(0), int32(math.MaxInt32-8), int32(math.MinInt32), int32(math.MinInt32+8), uint8(2))
	f.Fuzz(func(t *testing.T, cells []byte, ox, oy, oz int32, leafSel uint8) {
		const minPoints = 4
		if len(cells) > 3*1024 {
			cells = cells[:3*1024]
		}
		leaf := fuzzLeaves[int(leafSel)%len(fuzzLeaves)]
		c := pointcloud.New(len(cells) / 3 * len(cellOffsets))
		at := func(o int32, d int8) float64 { return float64(int64(o) + int64(d)) }
		for i := 0; i+3 <= len(cells); i += 3 {
			o := geom.V3(at(ox, int8(cells[i])), at(oy, int8(cells[i+1])), at(oz, int8(cells[i+2])>>2))
			appendCell(c, o, int(cells[i+2]&3), leaf)
		}
		requireReferenceGrid(t, "fuzzed cloud", pointcloud.BuildVoxelStats(c, leaf, minPoints), c, leaf, minPoints, edgeKeys())
	})
}

// cellOffsets places six points inside a 2 m voxel, off any plane, so
// their covariance inverts.
var cellOffsets = []geom.Vec3{
	geom.V3(0.2, 0.3, 0.4), geom.V3(1.7, 0.5, 0.9), geom.V3(0.6, 1.8, 0.3),
	geom.V3(1.1, 1.2, 1.7), geom.V3(0.4, 0.9, 1.2), geom.V3(1.5, 1.6, 0.6),
}
