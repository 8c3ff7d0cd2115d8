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
			if got, ok := ix.find(k); !ok || got != w {
				t.Fatalf("round %d: find(%v) = (%d, %v), want %d", round, k, got, ok, w)
			}
		}
		if _, ok := ix.find(VoxelKey{X: 1000}); ok {
			t.Fatalf("round %d: found an absent key", round)
		}
	}
}

// TestVoxelGridMatchesMapReference rebuilds the statistics grid the
// map-based way and requires identical voxels under every key, in
// first-touch order.
func TestVoxelGridMatchesMapReference(t *testing.T) {
	rng := mathx.NewRNG(37)
	c := New(20000)
	for i := 0; i < 20000; i++ {
		c.Append(Point{Pos: geom.V3(rng.Range(-30, 30), rng.Range(-30, 30), rng.Range(-1, 5))})
	}
	const leaf = 2.0
	g := BuildVoxelStats(c, leaf, 4)
	var order []VoxelKey
	counts := map[VoxelKey]int{}
	for _, p := range c.Points {
		k := KeyFor(p.Pos, leaf)
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	if g.Len() != len(order) {
		t.Fatalf("grid has %d voxels, want %d", g.Len(), len(order))
	}
	ok := 0
	for i, k := range order {
		vs := g.Lookup(k)
		if vs != &g.Voxels[i] {
			t.Fatalf("voxel %v not at first-touch position %d", k, i)
		}
		if vs.N != counts[k] || KeyFor(vs.Mean, leaf) != k {
			t.Fatalf("voxel %v: N=%d mean=%v, want N=%d", k, vs.N, vs.Mean, counts[k])
		}
		if vs.OK {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no usable voxels")
	}
	if g.Lookup(VoxelKey{X: 999, Y: 999, Z: 999}) != nil {
		t.Error("lookup of an unoccupied voxel should be nil")
	}
}
