package pointcloud

import "unsafe"

// Exports for the external test package, which builds the shared HD map
// and so cannot be this package.

// GridLayout returns the number of g's tiles and the bytes of one,
// and the number of its directory slots and the bytes of one: a tile
// key and a tile index.
func GridLayout(g *VoxelGrid) (tiles, tileBytes, slots, slotBytes int) {
	return len(g.tiles), int(unsafe.Sizeof(voxelTile{})),
		len(g.dirKeys), int(unsafe.Sizeof(g.dirKeys[0]) + unsafe.Sizeof(g.dirTiles[0]))
}

// RefVoxelStats, ReferenceVoxelStats and SameVoxelBits expose the
// reference statistics build.
type RefVoxelStats = refVoxelStats

var (
	ReferenceVoxelStats = referenceVoxelStats
	SameVoxelBits       = sameVoxelBits
)
