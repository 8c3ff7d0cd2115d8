package pointcloud_test

import (
	"testing"
	"unsafe"

	"repro/internal/pointcloud"
	"repro/internal/testenv"
)

// TestGridSizePinned pins the layout that keeps the run-time HD map
// small: an 88-byte voxel record (mean, the inverse covariance's upper
// triangle, key, int32 count), 4-byte table slots, and for the shared
// scripted map 46,643 records behind 131,072 slots, 4.63 MB in all.
func TestGridSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(pointcloud.VoxelStats{}); got != 88 {
		t.Errorf("VoxelStats is %d bytes, want 88", got)
	}
	g := testenv.Map().NDT
	table := pointcloud.TableOf(g)
	if got := unsafe.Sizeof(table[0]); got != 4 {
		t.Errorf("table slots are %d bytes, want 4", got)
	}
	const voxels, slots = 46643, 131072
	bytes := len(g.Voxels)*int(unsafe.Sizeof(g.Voxels[0])) + len(table)*int(unsafe.Sizeof(table[0]))
	if len(g.Voxels) != voxels || len(table) != slots || bytes != voxels*88+slots*4 {
		t.Errorf("grid holds %d voxels behind %d slots, %d bytes; want %d behind %d, %d bytes",
			len(g.Voxels), len(table), bytes, voxels, slots, voxels*88+slots*4)
	}
}
