package pointcloud

import (
	"math"

	"repro/internal/geom"
)

// refVoxelStats is one occupied voxel as the full statistics build
// recorded it: usable or not, with the covariance beside its inverse.
type refVoxelStats struct {
	Key    VoxelKey
	Mean   geom.Vec3
	Cov    [3][3]float64
	InvCov [3][3]float64
	N      int
	OK     bool
}

// referenceVoxelStats is the full statistics build the lean grid
// replaced, kept verbatim but for its Go-map index: it returns every
// occupied voxel in first-touch order and marks the unusable ones, too
// sparse or with a singular covariance, not OK.
func referenceVoxelStats(c *Cloud, leaf float64, minPoints int) []refVoxelStats {
	type acc struct {
		sum geom.Vec3
		// Upper triangle of the second-moment matrix.
		xx, xy, xz, yy, yz, zz float64
		n                      int
	}
	index := map[VoxelKey]int{}
	var keys []VoxelKey
	var cells []acc
	for _, p := range c.Points {
		k := KeyFor(p.Pos, leaf)
		slot, ok := index[k]
		if !ok {
			slot = len(cells)
			index[k] = slot
			keys = append(keys, k)
			cells = append(cells, acc{})
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
	out := make([]refVoxelStats, len(cells))
	for i := range cells {
		a := &cells[i]
		vs := &out[i]
		vs.Key = keys[i]
		vs.N = a.n
		inv := 1 / float64(a.n)
		m := a.sum.Scale(inv)
		vs.Mean = m
		if a.n < minPoints {
			continue
		}
		cov := [3][3]float64{
			{a.xx*inv - m.X*m.X, a.xy*inv - m.X*m.Y, a.xz*inv - m.X*m.Z},
			{a.xy*inv - m.X*m.Y, a.yy*inv - m.Y*m.Y, a.yz*inv - m.Y*m.Z},
			{a.xz*inv - m.X*m.Z, a.yz*inv - m.Y*m.Z, a.zz*inv - m.Z*m.Z},
		}
		minVar := math.Max(1e-4, 0.004*(cov[0][0]+cov[1][1]+cov[2][2]))
		for i := 0; i < 3; i++ {
			cov[i][i] += minVar
		}
		vs.Cov = cov
		if ic, ok := invert3(cov); ok {
			vs.InvCov = ic
			vs.OK = true
		}
	}
	return out
}

// upper maps each term of a 3x3 symmetric matrix to its index in
// VoxelStats.InvCov: a lower term reads its upper mirror.
var upper = [3][3]int{{0, 1, 2}, {1, 3, 4}, {2, 4, 5}}

// sameVoxelBits reports whether a lean voxel carries the reference
// voxel's mean, and whether its six inverse-covariance terms equal the
// reference's full inverse in both triangles, bit for bit.
func sameVoxelBits(got VoxelStats, want refVoxelStats) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.Mean.X, want.Mean.X) || !same(got.Mean.Y, want.Mean.Y) || !same(got.Mean.Z, want.Mean.Z) {
		return false
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !same(got.InvCov[upper[i][j]], want.InvCov[i][j]) {
				return false
			}
		}
	}
	return true
}
