package pointcloud

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geom"
)

// VoxelKey identifies a cubic cell of the voxel grid.
type VoxelKey struct {
	X, Y, Z int32
}

// KeyFor returns the voxel containing p for the given leaf size.
func KeyFor(p geom.Vec3, leaf float64) VoxelKey {
	return VoxelKey{
		X: int32(math.Floor(p.X / leaf)),
		Y: int32(math.Floor(p.Y / leaf)),
		Z: int32(math.Floor(p.Z / leaf)),
	}
}

// voxelAcc accumulates one occupied cell. Cells live in a flat slice in
// first-touch order (the order the scan stream discovers them), which
// makes the output ordering deterministic — unlike map iteration — and
// avoids one pointer-chased allocation per cell.
type voxelAcc struct {
	key       VoxelKey
	sum       geom.Vec3
	intensity float64
	n         int
	ring      int
}

// voxelScratch is the reusable working set of one downsample pass: the
// key -> slot index and the accumulator slots.
type voxelScratch struct {
	idx  voxelIndex
	accs []voxelAcc
}

var voxelScratchPool = sync.Pool{
	New: func() any { return new(voxelScratch) },
}

// getVoxelScratch returns an empty scratch sized for about hint cells.
func getVoxelScratch(hint int) *voxelScratch {
	s := voxelScratchPool.Get().(*voxelScratch)
	s.reset(hint)
	return s
}

// reset empties s and sizes its index for about hint cells.
func (s *voxelScratch) reset(hint int) {
	s.idx.reset(hint)
	s.accs = s.accs[:0]
}

func putVoxelScratch(s *voxelScratch) { voxelScratchPool.Put(s) }

// accumulate bins pts into s in input order.
func (s *voxelScratch) accumulate(pts []Point, leaf float64) {
	for i := range pts {
		p := &pts[i]
		k := KeyFor(p.Pos, leaf)
		slot, added := s.idx.insert(k, int32(len(s.accs)))
		if added {
			s.accs = append(s.accs, voxelAcc{key: k})
		}
		a := &s.accs[slot]
		a.sum = a.sum.Add(p.Pos)
		a.intensity += p.Intensity
		a.ring = p.Ring
		a.n++
	}
}

// merge folds o's cells into s in o's first-touch order, preserving the
// whole-stream first-touch ordering when blocks are merged in order.
func (s *voxelScratch) merge(o *voxelScratch) {
	for i := range o.accs {
		oa := &o.accs[i]
		slot, added := s.idx.insert(oa.key, int32(len(s.accs)))
		if added {
			s.accs = append(s.accs, *oa)
			continue
		}
		a := &s.accs[slot]
		a.sum = a.sum.Add(oa.sum)
		a.intensity += oa.intensity
		a.ring = oa.ring
		a.n += oa.n
	}
}

// voxelBlock is the block size of the binning pass, and the HD map's
// bits depend on it. A larger cloud is binned one block at a time, and
// each block's per-cell sums are folded into the running total in block
// order, so a cell's centroid is a sum of per-block sums: a different
// floating-point association from one pass over every point. Scans fit
// in one block; the HD-map build folds tens of blocks per call, so
// changing this value changes every map's point and voxel bits.
const voxelBlock = 8192

// VoxelDownsample reduces a cloud to one point per occupied voxel — the
// centroid of the points that fell in it, as PCL's VoxelGrid does. This
// is the computational core of the voxel_grid_filter node. It returns
// the filtered cloud and the number of occupied voxels.
func VoxelDownsample(c *Cloud, leaf float64) (*Cloud, int) {
	return VoxelDownsampleInto(c, leaf, nil)
}

// VoxelDownsampleInto is VoxelDownsample with a reusable destination
// cloud (nil allocates); dst may be c itself, since every input point is
// binned before the first output is written. Output points appear in
// first-touch voxel order, so the result is a pure function of the
// input. Clouds above voxelBlock points are binned block by block and
// folded in block order.
func VoxelDownsampleInto(c *Cloud, leaf float64, dst *Cloud) (*Cloud, int) {
	if leaf <= 0 {
		panic("pointcloud: non-positive voxel leaf size")
	}
	n := c.Len()
	head := min(n, voxelBlock)
	merged := getVoxelScratch(head)
	merged.accumulate(c.Points[:head], leaf)
	if n > head {
		part := getVoxelScratch(0)
		for lo := head; lo < n; lo += voxelBlock {
			hi := min(lo+voxelBlock, n)
			part.reset(hi - lo)
			part.accumulate(c.Points[lo:hi], leaf)
			merged.merge(part)
		}
		putVoxelScratch(part)
	}
	cells := len(merged.accs)
	if dst == nil {
		dst = New(cells)
	}
	dst.Points = dst.Points[:0]
	for i := range merged.accs {
		a := &merged.accs[i]
		inv := 1 / float64(a.n)
		dst.Points = append(dst.Points, Point{
			Pos:       a.sum.Scale(inv),
			Intensity: a.intensity * inv,
			Ring:      a.ring,
		})
	}
	putVoxelScratch(merged)
	return dst, cells
}

// VoxelStats holds the Gaussian statistics of the points inside one
// usable voxel: its mean and inverse covariance. This is the per-cell
// model of the Normal Distributions Transform used by ndt_matching and
// built by the hdmap package. The record carries no key: a VoxelGrid
// implies it from where the record sits.
type VoxelStats struct {
	Mean geom.Vec3
	// InvCov is the inverse covariance's upper triangle, row by row:
	// (0,0) (0,1) (0,2) (1,1) (1,2) (2,2). BuildVoxelStats inverts an
	// exactly symmetric covariance, so the lower triangle it drops
	// holds the same bits (see invert3).
	InvCov [6]float64
}

// keyBits is the width of one axis of a biased key, and keyBias the
// bias added to each coordinate.
const (
	keyBits = 21
	keyBias = 1 << (keyBits - 1)
)

// biasKey returns k's coordinates biased by 2^20 into 1 .. 2^21-1. ok
// is false when a coordinate lies outside the packable range
// (-2^20, 2^20), about a million cells either side of the origin
// (2,100 km at a 2 m leaf); a NaN point's key (math.MinInt32 on amd64)
// is outside it.
func biasKey(k VoxelKey) (x, y, z uint32, ok bool) {
	// A packable coordinate biases to 1 .. 2^21-1, so x, y and z, one
	// less and wrapped, fall below span exactly when all three pack.
	const span = 2*keyBias - 1
	x, y, z = uint32(k.X)+keyBias-1, uint32(k.Y)+keyBias-1, uint32(k.Z)+keyBias-1
	if x >= span || y >= span || z >= span {
		return 0, 0, 0, false
	}
	return x + 1, y + 1, z + 1, true
}

// A tile is a cube of 8x8x8 voxels. keyBias is a multiple of the tile
// size, so a biased coordinate splits into its tile (the high
// tileAxisBits bits) and its place in the tile (the low tileBits).
const (
	tileBits     = 3
	tileDim      = 1 << tileBits
	tileMask     = tileDim - 1
	tileAxisBits = keyBits - tileBits
	// tileCells is the number of voxels in a tile, and so the span of
	// the local part of a rank key.
	tileCells = tileDim * tileDim * tileDim
)

// tileKey packs the tile of biased coordinates into 54 bits, x then y
// then z.
func tileKey(x, y, z uint32) uint64 {
	return uint64(x>>tileBits)<<(2*tileAxisBits) | uint64(y>>tileBits)<<tileAxisBits | uint64(z>>tileBits)
}

// voxelTile is one tile's occupancy: a 512-bit bitmap, one word per z
// layer with bit y*8+x set for each usable voxel, and the Voxels index
// of the tile's first record. The tile's records follow in bit order.
type voxelTile struct {
	occ   [tileDim]uint64
	first int32
}

// emptyTile marks an empty directory slot; tile keys use 54 bits.
const emptyTile = ^uint64(0)

// dirMul is the Fibonacci-hashing multiplier that places a tile key in
// the directory: neighbouring tiles differ in one packed field, and
// the product's top bits spread them.
const dirMul = 0x9E3779B97F4A7C15

// minDirSize is the smallest directory a grid gets, so a probe of an
// empty grid meets an empty slot.
const minDirSize = 8

// VoxelGrid is an NDT statistics grid: the Gaussians of a cloud's
// usable voxels stored by value, grouped by tile, and a directory of
// the occupied tiles. A voxel's key is implied by its record's place:
// Lookup finds the key's tile with one directory probe, tests the
// voxel's bit in the tile's bitmap, and counts the bits before it to
// reach the record. A key with no usable voxel never reads a record,
// lookups neither hash through the runtime nor chase a pointer per
// voxel, and the layout is a pure function of the input cloud.
type VoxelGrid struct {
	// Voxels holds every usable voxel: tile by tile in tile-key order,
	// and within a tile by z, then y, then x.
	Voxels []VoxelStats
	tiles  []voxelTile
	// dirKeys and dirTiles are the directory, an open-addressed,
	// linearly probed table of tile keys and their tiles' indices at
	// load at most three quarters; emptyTile marks a free slot. shift
	// turns a key's hash into a slot.
	dirKeys  []uint64
	dirTiles []int32
	shift    uint
}

// Len returns the number of usable voxels.
func (g *VoxelGrid) Len() int { return len(g.Voxels) }

// Lookup returns the voxel with key k, or nil when it is unoccupied,
// unusable or outside the packable range.
func (g *VoxelGrid) Lookup(k VoxelKey) *VoxelStats {
	x, y, z, ok := biasKey(k)
	if !ok {
		return nil
	}
	t := g.tile(tileKey(x, y, z))
	if t == nil {
		return nil
	}
	z &= tileMask
	return g.inLayer(t.occ[z], t.layerFirst(z), x&tileMask, y&tileMask)
}

// tile returns the tile with key tk, or nil when no usable voxel lies
// in it.
func (g *VoxelGrid) tile(tk uint64) *voxelTile {
	if len(g.tiles) == 0 {
		return nil
	}
	mask := uint32(len(g.dirKeys) - 1)
	for i := uint32(tk * dirMul >> g.shift); ; i = (i + 1) & mask {
		switch g.dirKeys[i] {
		case tk:
			return &g.tiles[g.dirTiles[i]]
		case emptyTile:
			return nil
		}
	}
}

// layerFirst returns the Voxels index of the first record of layer z,
// below tileDim, of tile t.
func (t *voxelTile) layerFirst(z uint32) int {
	i := int(t.first)
	for _, below := range t.occ[:z&tileMask] {
		i += bits.OnesCount64(below)
	}
	return i
}

// inLayer returns the voxel at (x, y) of a tile layer whose occupancy
// word is w and whose first record is Voxels[first], or nil when its
// bit is clear.
func (g *VoxelGrid) inLayer(w uint64, first int, x, y uint32) *VoxelStats {
	bit := uint64(1) << (y<<tileBits | x)
	if w&bit == 0 {
		return nil
	}
	return &g.Voxels[first+bits.OnesCount64(w&(bit-1))]
}

// direct7 holds the offsets of the DIRECT7 neighbourhood: the cell
// itself, then its face neighbours along x, y and z.
var direct7 = [7]VoxelKey{{}, {X: -1}, {X: 1}, {Y: -1}, {Y: 1}, {Z: -1}, {Z: 1}}

// Direct7 appends to out the usable voxels among k and its six face
// neighbours, in the order k, -x, +x, -y, +y, -z, +z. It finds k's tile
// and the first record of k's layer once: the four neighbours in k's
// layer share its occupancy word, the two across z read the adjacent
// words, and only a neighbour across a tile face is looked up on its
// own.
func (g *VoxelGrid) Direct7(k VoxelKey, out []*VoxelStats) []*VoxelStats {
	x, y, z, ok := biasKey(k)
	var t *voxelTile
	if ok {
		t = g.tile(tileKey(x, y, z))
	}
	x, y, z = x&tileMask, y&tileMask, z&tileMask
	// Layers z-1, z and z+1 of k's tile; all clear when it has none.
	var occ [3]uint64
	var first [3]int
	if t != nil {
		first[1] = t.layerFirst(z)
		occ[1] = t.occ[z]
		if z > 0 {
			occ[0] = t.occ[z-1]
			first[0] = first[1] - bits.OnesCount64(occ[0])
		}
		if z < tileMask {
			occ[2] = t.occ[z+1]
			first[2] = first[1] + bits.OnesCount64(occ[1])
		}
	}
	// Which of the seven lie in k's tile; none does when k does not
	// pack, though a neighbour may.
	in := [7]bool{ok, ok && x > 0, ok && x < tileMask, ok && y > 0, ok && y < tileMask, ok && z > 0, ok && z < tileMask}
	for i, d := range direct7 {
		var vs *VoxelStats
		if in[i] {
			vs = g.inLayer(occ[1+d.Z], first[1+d.Z], uint32(int32(x)+d.X), uint32(int32(y)+d.Y))
		} else {
			vs = g.Lookup(VoxelKey{X: k.X + d.X, Y: k.Y + d.Y, Z: k.Z + d.Z})
		}
		if vs != nil {
			out = append(out, vs)
		}
	}
	return out
}

// ForEach calls fn for every voxel with its key, in Voxels order.
func (g *VoxelGrid) ForEach(fn func(k VoxelKey, vs *VoxelStats)) {
	keys := make([]uint64, len(g.tiles))
	for i, tk := range g.dirKeys {
		if tk != emptyTile {
			keys[g.dirTiles[i]] = tk
		}
	}
	const axis = 1<<tileAxisBits - 1
	for ti := range g.tiles {
		t := &g.tiles[ti]
		tx := uint32(keys[ti]>>(2*tileAxisBits)&axis) << tileBits
		ty := uint32(keys[ti]>>tileAxisBits&axis) << tileBits
		tz := uint32(keys[ti]&axis) << tileBits
		i := int(t.first)
		for z, w := range t.occ {
			for ; w != 0; w &= w - 1 {
				b := uint32(bits.TrailingZeros64(w))
				fn(VoxelKey{
					X: int32(tx|b&tileMask) - keyBias,
					Y: int32(ty|b>>tileBits) - keyBias,
					Z: int32(tz|uint32(z)) - keyBias,
				}, &g.Voxels[i])
				i++
			}
		}
	}
}

// BuildVoxelStats accumulates per-voxel Gaussian statistics for a cloud
// and keeps the usable voxels: those with at least minPoints points, a
// key inside the packable range and an invertible covariance. The grid
// holds nothing else, so matching never meets a voxel it must skip.
func BuildVoxelStats(c *Cloud, leaf float64, minPoints int) *VoxelGrid {
	if leaf <= 0 {
		panic("pointcloud: non-positive voxel leaf size")
	}
	type acc struct {
		key VoxelKey
		sum geom.Vec3
		// Upper triangle of the second-moment matrix.
		xx, xy, xz, yy, yz, zz float64
		n                      int
	}
	var cellIndex voxelIndex
	cellIndex.reset(c.Len() / 8)
	var cells []acc
	for _, p := range c.Points {
		k := KeyFor(p.Pos, leaf)
		slot, added := cellIndex.insert(k, int32(len(cells)))
		if added {
			cells = append(cells, acc{key: k})
		}
		a := &cells[slot]
		v := p.Pos
		a.sum = a.sum.Add(v)
		a.xx += v.X * v.X
		a.xy += v.X * v.Y
		a.xz += v.X * v.Z
		a.yy += v.Y * v.Y
		a.yz += v.Y * v.Z
		a.zz += v.Z * v.Z
		a.n++
	}
	// ranked pairs a usable voxel's rank key (its tile key, then its
	// place in the tile) with the index of its record in voxels.
	type ranked struct {
		rank uint64
		i    int32
	}
	voxels := make([]VoxelStats, 0, len(cells))
	order := make([]ranked, 0, len(cells))
	for i := range cells {
		a := &cells[i]
		x, y, z, ok := biasKey(a.key)
		if a.n < minPoints || !ok {
			continue
		}
		inv := 1 / float64(a.n)
		m := a.sum.Scale(inv)
		cov := [3][3]float64{
			{a.xx*inv - m.X*m.X, a.xy*inv - m.X*m.Y, a.xz*inv - m.X*m.Z},
			{a.xy*inv - m.X*m.Y, a.yy*inv - m.Y*m.Y, a.yz*inv - m.Y*m.Z},
			{a.xz*inv - m.X*m.Z, a.yz*inv - m.Y*m.Z, a.zz*inv - m.Z*m.Z},
		}
		// Regularize: NDT implementations inflate near-singular
		// covariances so planar surfaces (rank-2 covariance) stay
		// invertible while preserving the anisotropy that makes the
		// match informative. The floor scales with the total spread
		// of the cell, echoing PCL's eigenvalue clamping.
		minVar := math.Max(1e-4, 0.004*(cov[0][0]+cov[1][1]+cov[2][2]))
		for i := 0; i < 3; i++ {
			cov[i][i] += minVar
		}
		ic, ok := invert3(cov)
		if !ok {
			continue
		}
		local := (z&tileMask)<<(2*tileBits) | (y&tileMask)<<tileBits | x&tileMask
		order = append(order, ranked{rank: tileKey(x, y, z)*tileCells + uint64(local), i: int32(len(voxels))})
		voxels = append(voxels, VoxelStats{
			Mean:   m,
			InvCov: [6]float64{ic[0][0], ic[0][1], ic[0][2], ic[1][1], ic[1][2], ic[2][2]},
		})
	}
	// The cells and their index die here. The grid keeps the usable
	// voxels in rank order, exactly sized, one tile per run of equal
	// tile keys, and a directory sized for the tiles. Rank keys are
	// distinct, so the order is total.
	slices.SortFunc(order, func(a, b ranked) int { return cmp.Compare(a.rank, b.rank) })
	tiles := 0
	for j := range order {
		if j == 0 || order[j].rank/tileCells != order[j-1].rank/tileCells {
			tiles++
		}
	}
	g := &VoxelGrid{Voxels: make([]VoxelStats, len(order)), tiles: make([]voxelTile, 0, tiles)}
	size := minDirSize
	for 4*tiles > 3*size {
		size <<= 1
	}
	g.dirKeys = make([]uint64, size)
	g.dirTiles = make([]int32, size)
	for i := range g.dirKeys {
		g.dirKeys[i] = emptyTile
	}
	g.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint32(size - 1)
	for j, o := range order {
		g.Voxels[j] = voxels[o.i]
		tk, local := o.rank/tileCells, o.rank%tileCells
		if j == 0 || tk != order[j-1].rank/tileCells {
			d := uint32(tk * dirMul >> g.shift)
			for g.dirKeys[d] != emptyTile {
				d = (d + 1) & mask
			}
			g.dirKeys[d] = tk
			g.dirTiles[d] = int32(len(g.tiles))
			g.tiles = append(g.tiles, voxelTile{first: int32(j)})
		}
		g.tiles[len(g.tiles)-1].occ[local/64] |= 1 << (local % 64)
	}
	return g
}

// invert3 inverts a 3x3 matrix via the adjugate; ok is false when the
// determinant is numerically zero. For a symmetric m (b=d, c=g, f=h)
// each lower term multiplies the same pair of values as its upper
// mirror, operands swapped: (1,0)'s f*g - d*i is (0,1)'s c*h - b*i, and
// likewise for (2,0) and (2,1). IEEE multiplication commutes, so the
// inverse is symmetric bit for bit.
func invert3(m [3][3]float64) ([3][3]float64, bool) {
	a, b, c := m[0][0], m[0][1], m[0][2]
	d, e, f := m[1][0], m[1][1], m[1][2]
	g, h, i := m[2][0], m[2][1], m[2][2]
	det := a*(e*i-f*h) - b*(d*i-f*g) + c*(d*h-e*g)
	if math.Abs(det) < 1e-12 {
		return [3][3]float64{}, false
	}
	inv := 1 / det
	return [3][3]float64{
		{(e*i - f*h) * inv, (c*h - b*i) * inv, (b*f - c*e) * inv},
		{(f*g - d*i) * inv, (a*i - c*g) * inv, (c*d - a*f) * inv},
		{(d*h - e*g) * inv, (b*g - a*h) * inv, (a*e - b*d) * inv},
	}, true
}

// MahalanobisSq returns (p-mean)' InvCov (p-mean) for the voxel model,
// reading the upper triangle in place of each lower term.
func (vs *VoxelStats) MahalanobisSq(p geom.Vec3) float64 {
	d := p.Sub(vs.Mean)
	s := &vs.InvCov
	t0 := s[0]*d.X + s[1]*d.Y + s[2]*d.Z
	t1 := s[1]*d.X + s[3]*d.Y + s[4]*d.Z
	t2 := s[2]*d.X + s[4]*d.Y + s[5]*d.Z
	return d.X*t0 + d.Y*t1 + d.Z*t2
}
