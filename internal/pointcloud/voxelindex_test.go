package pointcloud

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// TestVoxelIndexMatchesMap checks the open-addressed index against a Go
// map through growth and resets, with negative and clustered keys.
func TestVoxelIndexMatchesMap(t *testing.T) {
	rng := mathx.NewRNG(31)
	var ix voxelIndex
	for round, n := range []int{0, 10, 5000, 300} {
		ix.reset(n / 10)
		want := map[VoxelKey]int32{}
		for i := 0; i < n; i++ {
			k := VoxelKey{X: int32(rng.Intn(40) - 20), Y: int32(rng.Intn(40) - 20), Z: int32(rng.Intn(6) - 3)}
			next := int32(len(want))
			got, added := ix.insert(k, next)
			if w, ok := want[k]; ok {
				if added || got != w {
					t.Fatalf("round %d: insert(%v) = (%d, %v), want (%d, false)", round, k, got, added, w)
				}
				continue
			}
			if !added || got != next {
				t.Fatalf("round %d: insert(%v) = (%d, %v), want (%d, true)", round, k, got, added, next)
			}
			want[k] = next
		}
		for k, w := range want {
			if got, added := ix.insert(k, -1); added || got != w {
				t.Fatalf("round %d: re-insert(%v) = (%d, %v), want (%d, false)", round, k, got, added, w)
			}
		}
		absent := int32(len(want))
		if got, added := ix.insert(VoxelKey{X: 1000}, absent); !added || got != absent {
			t.Fatalf("round %d: insert of an absent key = (%d, %v), want (%d, true)", round, got, added, absent)
		}
	}
}

// TestVoxelGridMatchesMapReference builds the statistics grid of a
// random cloud both ways: the lean build, and the full reference build
// behind a Go map. The grid must hold exactly the reference's usable
// voxels, bit for bit and in first-touch order, each with its key and
// with six inverse-covariance terms that equal the reference's full
// inverse in both triangles. Lookup must find each of them and nothing
// else: not a sparse voxel, not a degenerate one, not an unoccupied
// key.
func TestVoxelGridMatchesMapReference(t *testing.T) {
	rng := mathx.NewRNG(37)
	c := New(20005)
	for i := 0; i < 20000; i++ {
		c.Append(Point{Pos: geom.V3(rng.Range(-30, 30), rng.Range(-30, 30), rng.Range(-1, 5))})
	}
	// Five coincident points: populous enough, but the covariance
	// stays singular after regularization.
	for i := 0; i < 5; i++ {
		c.Append(Point{Pos: geom.V3(100.1, 100.1, 100.1)})
	}
	const leaf, minPoints = 2.0, 4
	g := BuildVoxelStats(c, leaf, minPoints)
	usable, sparse, degenerate := 0, 0, 0
	for _, r := range referenceVoxelStats(c, leaf, minPoints) {
		vs := g.Lookup(r.key)
		if !r.OK {
			if r.N < minPoints {
				sparse++
			} else {
				degenerate++
			}
			if vs != nil {
				t.Fatalf("unusable voxel %v (N=%d) is in the grid", r.key, r.N)
			}
			continue
		}
		if usable >= g.Len() || vs != &g.Voxels[usable] {
			t.Fatalf("usable voxel %v not found at first-touch position %d", r.key, usable)
		}
		if !sameVoxelBits(*vs, r) {
			t.Fatalf("voxel %v: got %+v, want mean %v invcov %v N=%d", r.key, *vs, r.Mean, r.InvCov, r.N)
		}
		usable++
	}
	if usable != g.Len() {
		t.Fatalf("grid has %d voxels, reference has %d usable", g.Len(), usable)
	}
	if usable == 0 || sparse == 0 || degenerate == 0 {
		t.Fatalf("cloud has %d usable, %d sparse and %d degenerate voxels; the check needs each", usable, sparse, degenerate)
	}
	if g.Lookup(VoxelKey{X: 999, Y: 999, Z: 999}) != nil {
		t.Error("lookup of an unoccupied voxel should be nil")
	}
}
