package pointcloud

import (
	"math"
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
// usable voxel: its packed key, mean and inverse covariance. This is
// the per-cell model of the Normal Distributions Transform used by
// ndt_matching and built by the hdmap package. The key comes first, so
// a probe's key compare and the mean it then reads share a cache line.
type VoxelStats struct {
	// key is the voxel's key packed by packKey.
	key  uint64
	Mean geom.Vec3
	// InvCov is the inverse covariance's upper triangle, row by row:
	// (0,0) (0,1) (0,2) (1,1) (1,2) (2,2). BuildVoxelStats inverts an
	// exactly symmetric covariance, so the lower triangle it drops
	// holds the same bits (see invert3).
	InvCov [6]float64
}

// Key returns the voxel's key.
func (vs *VoxelStats) Key() VoxelKey {
	const mask = 1<<keyBits - 1
	return VoxelKey{
		X: int32(vs.key>>(2*keyBits)&mask) - keyBias,
		Y: int32(vs.key>>keyBits&mask) - keyBias,
		Z: int32(vs.key&mask) - keyBias,
	}
}

// keyBits is the width of one axis of a packed key, and keyBias the
// bias added to each coordinate before packing.
const (
	keyBits = 21
	keyBias = 1 << (keyBits - 1)
)

// packKey packs k into one uint64, each coordinate biased by 2^20 into
// 21 bits. ok is false when a coordinate lies outside the packable
// range (-2^20, 2^20), about a million cells either side of the origin
// (2,100 km at a 2 m leaf); a NaN point's key (math.MinInt32 on amd64)
// is outside it.
func packKey(k VoxelKey) (packed uint64, ok bool) {
	// A packable coordinate biases to 1 .. 2^21-1, so x, y and z, one
	// less and wrapped, fall below span exactly when all three pack.
	const span = 2*keyBias - 1
	x, y, z := uint32(k.X)+keyBias-1, uint32(k.Y)+keyBias-1, uint32(k.Z)+keyBias-1
	if x >= span || y >= span || z >= span {
		return 0, false
	}
	return uint64(x+1)<<(2*keyBits) | uint64(y+1)<<keyBits | uint64(z+1), true
}

// VoxelGrid is an NDT statistics grid: the Gaussians of a cloud's
// usable voxels stored by value in first-touch order, behind an
// open-addressed, linearly probed table. Each slot holds a voxel number
// and a one-byte tag from the key's hash, so a probe reads one tag byte
// per slot and reads a voxel number and a record only when the tag
// matches; lookups neither hash through the runtime nor chase a pointer
// per voxel, and iteration order is a pure function of the input cloud.
type VoxelGrid struct {
	// Voxels holds every usable voxel in the order the cloud first
	// touched it.
	Voxels []VoxelStats
	// slots holds the Voxels index of each occupied slot, and tags its
	// tag, zero marking an empty slot. Their length is a power of two
	// that keeps the load at or below three quarters.
	slots []int32
	tags  []uint8
	mask  uint32
}

// gridTableSize returns the slot count of a grid of n voxels: the
// smallest power of two, and at least minIndexSize, that keeps the load
// at or below three quarters.
func gridTableSize(n int) int {
	size := minIndexSize
	for 4*n > 3*size {
		size <<= 1
	}
	return size
}

// tagOf returns the slot tag of a key hash: its top byte, never zero.
func tagOf(h uint32) uint8 { return max(uint8(h>>24), 1) }

// Len returns the number of usable voxels.
func (g *VoxelGrid) Len() int { return len(g.Voxels) }

// Lookup returns the voxel with key k, or nil when it is unoccupied,
// unusable or outside the packable range.
func (g *VoxelGrid) Lookup(k VoxelKey) *VoxelStats {
	packed, ok := packKey(k)
	if !ok || len(g.Voxels) == 0 {
		return nil
	}
	h := hashKey(k)
	tag := tagOf(h)
	for i := h & g.mask; ; i = (i + 1) & g.mask {
		switch g.tags[i] {
		case 0:
			return nil
		case tag:
			if vs := &g.Voxels[g.slots[i]]; vs.key == packed {
				return vs
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
	voxels := make([]VoxelStats, 0, len(cells))
	for i := range cells {
		a := &cells[i]
		packed, ok := packKey(a.key)
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
		voxels = append(voxels, VoxelStats{
			key:    packed,
			Mean:   m,
			InvCov: [6]float64{ic[0][0], ic[0][1], ic[0][2], ic[1][1], ic[1][2], ic[2][2]},
		})
	}
	// The cells and their index die here. The grid keeps an exactly
	// sized copy of the usable voxels and a table sized for them. Keys
	// are distinct, so each goes to the first empty slot of its probe
	// sequence.
	g := &VoxelGrid{Voxels: slices.Clone(voxels)}
	size := gridTableSize(len(g.Voxels))
	g.slots = make([]int32, size)
	g.tags = make([]uint8, size)
	g.mask = uint32(size - 1)
	for i := range g.Voxels {
		h := hashKey(g.Voxels[i].Key())
		j := h & g.mask
		for g.tags[j] != 0 {
			j = (j + 1) & g.mask
		}
		g.slots[j] = int32(i)
		g.tags[j] = tagOf(h)
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
