package localization

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/pointcloud"
)

// direct7Offsets is the DIRECT7 neighbourhood in the order align reads
// it: the point's voxel, then -x, +x, -y, +y, -z, +z.
var direct7Offsets = [7]pointcloud.VoxelKey{{}, {X: -1}, {X: 1}, {Y: -1}, {Y: 1}, {Z: -1}, {Z: 1}}

// referenceAlign is align as it stood while voxel records held the full
// 3x3 inverse covariance, with Sigma^-1 d as a loop over its rows. The
// records now hold the upper triangle, so the full matrix is rebuilt
// here with each lower term read from its upper mirror, which
// TestVoxelGridMatchesMapReference shows holds the reference build's
// bits. Each point's neighbourhood comes from seven Lookups, not from
// the Direct7 that align calls, so a Direct7 that returns the wrong
// voxels fails the comparison.
func referenceAlign(n *NDTMatching, cloud *pointcloud.Cloud, init geom.Pose) (pose geom.Pose, fitness float64, iters, matched, lookups int) {
	pose = init
	var buf []*pointcloud.VoxelStats
	h := mathx.NewMat(3, 3)
	for iters = 1; iters <= n.cfg.MaxIterations; iters++ {
		var g [3]float64
		for i := range h.Data {
			h.Data[i] = 0
		}
		sumD2, m, lk := 0.0, 0, 0
		s, c := math.Sincos(pose.Yaw)
		for i := range cloud.Points {
			lp := cloud.Points[i].Pos
			wp := pose.Transform(lp)
			lk += 7
			k := pointcloud.KeyFor(wp, n.m.NDTLeaf)
			buf = buf[:0]
			for _, d := range direct7Offsets {
				if vs := n.m.NDT.Lookup(pointcloud.VoxelKey{X: k.X + d.X, Y: k.Y + d.Y, Z: k.Z + d.Z}); vs != nil {
					buf = append(buf, vs)
				}
			}
			pointHit := false
			for _, vs := range buf {
				ic := vs.InvCov
				full := [3][3]float64{{ic[0], ic[1], ic[2]}, {ic[1], ic[3], ic[4]}, {ic[2], ic[4], ic[5]}}
				d := wp.Sub(vs.Mean)
				dv := [3]float64{d.X, d.Y, d.Z}
				var sd [3]float64
				for r := 0; r < 3; r++ {
					sd[r] = full[r][0]*dv[0] + full[r][1]*dv[1] + full[r][2]*dv[2]
				}
				d2 := dv[0]*sd[0] + dv[1]*sd[1] + dv[2]*sd[2]
				if d2 > n.cfg.OutlierMahalanobis {
					continue
				}
				wgt := 1.0
				if d2 > 9 {
					wgt = 9 / d2
				}
				sumD2 += d2
				pointHit = true
				jYawX := -lp.X*s - lp.Y*c
				jYawY := lp.X*c - lp.Y*s
				g[0] += wgt * sd[0]
				g[1] += wgt * sd[1]
				g[2] += wgt * (jYawX*sd[0] + jYawY*sd[1])
				s00 := full[0][0]
				s01 := full[0][1]
				s11 := full[1][1]
				h.AddAt(0, 0, wgt*s00)
				h.AddAt(0, 1, wgt*s01)
				h.AddAt(1, 0, wgt*s01)
				h.AddAt(1, 1, wgt*s11)
				hy0 := jYawX*s00 + jYawY*s01
				hy1 := jYawX*s01 + jYawY*s11
				h.AddAt(0, 2, wgt*hy0)
				h.AddAt(2, 0, wgt*hy0)
				h.AddAt(1, 2, wgt*hy1)
				h.AddAt(2, 1, wgt*hy1)
				h.AddAt(2, 2, wgt*(jYawX*hy0+jYawY*hy1))
			}
			if pointHit {
				m++
			}
		}
		matched, lookups = m, lookups+lk
		if m < 10 {
			fitness = math.Inf(1)
			return pose, fitness, iters, matched, lookups
		}
		fitness = sumD2 / float64(m)
		h.AddDiag(1e-6 + 0.01*h.At(0, 0))
		step, err := h.SolveVec([]float64{-g[0], -g[1], -g[2]})
		if err != nil {
			return pose, fitness, iters, matched, lookups
		}
		dx := step[0] * n.cfg.StepScale
		dy := step[1] * n.cfg.StepScale
		dyaw := geom.Clamp(step[2]*n.cfg.StepScale, -0.2, 0.2)
		pose = geom.Pose{
			Pos: pose.Pos.Add(geom.V3(dx, dy, 0)),
			Yaw: geom.WrapAngle(pose.Yaw + dyaw),
		}
		if math.Sqrt(dx*dx+dy*dy)+math.Abs(dyaw) < n.cfg.Epsilon {
			return pose, fitness, iters, matched, lookups
		}
	}
	return pose, fitness, n.cfg.MaxIterations, matched, lookups
}

// TestAlignMatchesReference runs align and the reference over every
// scan of a 6 s stretch of the scripted drive, from the true pose and
// from offsets that take several iterations, and requires the same pose
// bits, fitness, iteration count, matched count and lookup count.
func TestAlignMatchesReference(t *testing.T) {
	n := newTestNode(t)
	offsets := []geom.Pose{
		{},
		{Pos: geom.V3(0.8, -0.5, 0), Yaw: 0.03},
		{Pos: geom.V3(-1.5, 1.2, 0), Yaw: -0.08},
		{Pos: geom.V3(2, 2, 0), Yaw: 0.1},
	}
	bits := math.Float64bits
	multi := 0
	for k := 0; k < 60; k++ {
		at := 20 + 0.1*float64(k)
		cloud, truth := filteredScanAt(t, at)
		off := offsets[k%len(offsets)]
		init := geom.Pose{Pos: truth.Pos.Add(off.Pos), Yaw: geom.WrapAngle(truth.Yaw + off.Yaw)}
		p, f, it, m, lk := n.align(cloud, init)
		rp, rf, rit, rm, rlk := referenceAlign(n, cloud, init)
		if bits(p.Pos.X) != bits(rp.Pos.X) || bits(p.Pos.Y) != bits(rp.Pos.Y) || bits(p.Pos.Z) != bits(rp.Pos.Z) ||
			bits(p.Yaw) != bits(rp.Yaw) || bits(f) != bits(rf) || it != rit || m != rm || lk != rlk {
			t.Fatalf("scan at %.1f s: align = (%v, %v, %d, %d, %d), reference = (%v, %v, %d, %d, %d)",
				at, p, f, it, m, lk, rp, rf, rit, rm, rlk)
		}
		if it > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("every alignment converged in one iteration; no Newton step fed a later one")
	}
}
