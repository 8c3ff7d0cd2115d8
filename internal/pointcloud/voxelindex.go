package pointcloud

// voxelIndex maps voxel keys to dense slot numbers with an
// open-addressed, linearly probed table whose size is a power of two.
// It is the scratch index of the voxel downsample and of the statistics
// build: a probe hashes three int32s with one multiply and compares
// keys inline, and reset clears only the prefix of the table the next
// pass will use, so a pooled index that once held a large cloud stays
// cheap for small ones. A built VoxelGrid keeps no keys: it finds a
// voxel through its tile's occupancy bitmap.
type voxelIndex struct {
	slots []indexSlot
	mask  uint32
	n     int
}

// indexSlot holds one key and its slot number plus one; zero marks an
// empty table entry.
type indexSlot struct {
	key VoxelKey
	val int32
}

// minIndexSize is the smallest table reset allocates.
const minIndexSize = 64

// tableSize returns the table size for about hint keys: the smallest
// power of two, and at least minIndexSize, that keeps the load at or
// below one half.
func tableSize(hint int) int {
	size := minIndexSize
	for size < 2*hint {
		size <<= 1
	}
	return size
}

// reset empties the index and sizes it for about hint keys.
func (ix *voxelIndex) reset(hint int) {
	size := tableSize(hint)
	if cap(ix.slots) < size {
		ix.slots = make([]indexSlot, size)
	} else {
		ix.slots = ix.slots[:size]
		clear(ix.slots)
	}
	ix.mask = uint32(size - 1)
	ix.n = 0
}

// hashKey mixes a key into a table position. The multiply-xorshift
// spreads neighboring cells, which differ in one coordinate by one,
// across the table.
func hashKey(k VoxelKey) uint32 {
	h := uint64(uint32(k.X))*0x9E3779B97F4A7C15 ^
		uint64(uint32(k.Y))*0xC2B2AE3D27D4EB4F ^
		uint64(uint32(k.Z))*0x165667B19E3779F9
	h ^= h >> 32
	return uint32(h)
}

// insert returns k's slot number, first assigning it next when k is
// absent; added reports which case happened.
func (ix *voxelIndex) insert(k VoxelKey, next int32) (slot int32, added bool) {
	if 2*(ix.n+1) > len(ix.slots) {
		ix.grow()
	}
	i := hashKey(k) & ix.mask
	for {
		s := &ix.slots[i]
		if s.val == 0 {
			*s = indexSlot{key: k, val: next + 1}
			ix.n++
			return next, true
		}
		if s.key == k {
			return s.val - 1, false
		}
		i = (i + 1) & ix.mask
	}
}

// grow doubles the table and reinserts every key.
func (ix *voxelIndex) grow() {
	old := ix.slots
	size := 2 * len(old)
	if size < minIndexSize {
		size = minIndexSize
	}
	ix.slots = make([]indexSlot, size)
	ix.mask = uint32(size - 1)
	for _, s := range old {
		if s.val == 0 {
			continue
		}
		i := hashKey(s.key) & ix.mask
		for ix.slots[i].val != 0 {
			i = (i + 1) & ix.mask
		}
		ix.slots[i] = s
	}
}
