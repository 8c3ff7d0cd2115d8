package pointcloud

// Exports for the external test package, which builds the shared HD map
// and so cannot be this package.

// TableOf returns g's slot table: the voxel numbers and their tags.
func TableOf(g *VoxelGrid) ([]int32, []uint8) { return g.slots, g.tags }

// HomeAndTag returns the slot k's probe starts at in a table of size
// slots, and k's tag.
func HomeAndTag(k VoxelKey, size int) (uint32, uint8) {
	h := hashKey(k)
	return h & uint32(size-1), tagOf(h)
}

// RefVoxelStats, ReferenceVoxelStats and SameVoxelBits expose the
// reference statistics build.
type RefVoxelStats = refVoxelStats

var (
	ReferenceVoxelStats = referenceVoxelStats
	SameVoxelBits       = sameVoxelBits
)
