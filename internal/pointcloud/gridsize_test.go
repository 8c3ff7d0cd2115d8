package pointcloud_test

import (
	"testing"
	"unsafe"

	"repro/internal/pointcloud"
	"repro/internal/testenv"
)

// TestGridSizePinned pins the layout that keeps the run-time HD map
// small: a keyless 72-byte voxel record (mean, the inverse
// covariance's upper triangle), 72-byte tiles (a 512-bit occupancy
// bitmap and the index of the tile's first record) and 12-byte
// directory slots (a packed tile key and a tile index), and for the
// shared scripted map 46,643 records in 1,395 tiles behind 2,048
// slots, 3,483,312 bytes in all.
func TestGridSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(pointcloud.VoxelStats{}); got != 72 {
		t.Errorf("VoxelStats is %d bytes, want 72", got)
	}
	g := testenv.Map().NDT
	tiles, tileBytes, slots, slotBytes := pointcloud.GridLayout(g)
	if tileBytes != 72 || slotBytes != 12 {
		t.Errorf("tiles are %d bytes and directory slots %d, want 72 and 12", tileBytes, slotBytes)
	}
	const voxels, wantTiles, wantSlots, want = 46643, 1395, 2048, 46643*72 + 1395*72 + 2048*12
	bytes := len(g.Voxels)*int(unsafe.Sizeof(g.Voxels[0])) + tiles*tileBytes + slots*slotBytes
	if len(g.Voxels) != voxels || tiles != wantTiles || slots != wantSlots || bytes != want {
		t.Errorf("grid holds %d voxels in %d tiles behind %d slots, %d bytes; want %d in %d behind %d, %d bytes",
			len(g.Voxels), tiles, slots, bytes, voxels, wantTiles, wantSlots, want)
	}
	if bytes > 3_500_000 {
		t.Errorf("grid is %d bytes, want at most 3.50 MB", bytes)
	}
}
