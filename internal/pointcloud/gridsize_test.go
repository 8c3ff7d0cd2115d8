package pointcloud_test

import (
	"testing"
	"unsafe"

	"repro/internal/pointcloud"
	"repro/internal/testenv"
)

// TestGridSizePinned pins the layout that keeps the run-time HD map
// small: an 80-byte voxel record (packed key, mean, the inverse
// covariance's upper triangle), 5-byte table slots (a 4-byte voxel
// number and a 1-byte tag), and for the shared scripted map 46,643
// records behind 65,536 slots, 4.06 MB in all.
func TestGridSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(pointcloud.VoxelStats{}); got != 80 {
		t.Errorf("VoxelStats is %d bytes, want 80", got)
	}
	g := testenv.Map().NDT
	slots, tags := pointcloud.TableOf(g)
	slot := int(unsafe.Sizeof(slots[0]) + unsafe.Sizeof(tags[0]))
	if slot != 5 || len(tags) != len(slots) {
		t.Errorf("table slots are %d bytes, %d voxel numbers and %d tags; want 5 bytes, one tag per voxel number", slot, len(slots), len(tags))
	}
	const voxels, size = 46643, 65536
	bytes := len(g.Voxels)*int(unsafe.Sizeof(g.Voxels[0])) + len(slots)*slot
	if len(g.Voxels) != voxels || len(slots) != size || bytes != voxels*80+size*5 {
		t.Errorf("grid holds %d voxels behind %d slots, %d bytes; want %d behind %d, %d bytes",
			len(g.Voxels), len(slots), bytes, voxels, size, voxels*80+size*5)
	}
}
