package pointcloud

import (
	"testing"

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
