package pointcloud

// TableOf returns g's slot table, for the size pin in the external test
// package, which builds the shared HD map.
func TableOf(g *VoxelGrid) []int32 { return g.table }
