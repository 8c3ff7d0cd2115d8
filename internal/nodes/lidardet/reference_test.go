package lidardet

import (
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
	"repro/internal/testenv"
)

// referenceExtract is the region growing that Extract must reproduce:
// one k-d radius query per popped point, whose unvisited matches are
// pushed in the order the query returns them. It returns the objects
// and the traversal steps of its queries, which is what Extract leaves
// in lastTraversal.
func referenceExtract(cfg Config, cloud *pointcloud.Cloud) ([]msgs.DetectedObject, int) {
	c := New(cfg)
	var pts []geom.Vec3
	maxR2 := cfg.MaxRange * cfg.MaxRange
	for _, p := range cloud.Points {
		if p.Pos.XY().NormSq() <= maxR2 && !math.IsNaN(p.Pos.Z) {
			pts = append(pts, p.Pos)
		}
	}
	if len(pts) == 0 {
		return nil, 0
	}
	tree := pointcloud.NewKDTree(pts)
	visited := make([]bool, len(pts))
	var out []msgs.DetectedObject
	var frontier, neigh []int32
	id := 0
	for seed := range pts {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		frontier = append(frontier[:0], int32(seed))
		var member []int32
		for len(frontier) > 0 {
			cur := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			member = append(member, cur)
			if len(member) > cfg.MaxPoints {
				break
			}
			neigh = tree.Radius(pts[cur], cfg.Tolerance, neigh[:0])
			for _, nb := range neigh {
				if !visited[nb] {
					visited[nb] = true
					frontier = append(frontier, nb)
				}
			}
		}
		if len(member) < cfg.MinPoints || len(member) > cfg.MaxPoints {
			continue
		}
		out = append(out, c.summarize(pts, member, &id))
	}
	return out, tree.TraversalSteps
}

// sameObjects returns "" if two object lists are equal, comparing
// every float by its bits, and otherwise names the first difference.
func sameObjects(got, want []msgs.DetectedObject) string {
	if len(got) != len(want) {
		return "object count"
	}
	bits := math.Float64bits
	same3 := func(a, b geom.Vec3) bool {
		return bits(a.X) == bits(b.X) && bits(a.Y) == bits(b.Y) && bits(a.Z) == bits(b.Z)
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case g.ID != w.ID || g.Label != w.Label || bits(g.Score) != bits(w.Score) || g.PointCount != w.PointCount:
			return "object header"
		case !same3(g.Pose.Pos, w.Pose.Pos) || bits(g.Pose.Yaw) != bits(w.Pose.Yaw):
			return "object pose"
		case !same3(g.Dim, w.Dim):
			return "object dimensions"
		case len(g.Hull) != len(w.Hull):
			return "hull length"
		}
		for k := range g.Hull {
			if bits(g.Hull[k].X) != bits(w.Hull[k].X) || bits(g.Hull[k].Y) != bits(w.Hull[k].Y) {
				return "hull vertex"
			}
		}
	}
	return ""
}

var (
	driveOnce   sync.Once
	driveClouds []*pointcloud.Cloud
)

// noGroundDrive returns the ground filter's output for the LiDAR scans
// at every 0.1 s of the shared scripted drive's first 25 s, scanned in
// order by one scanner: the clouds euclidean_cluster sees on that
// drive.
func noGroundDrive() []*pointcloud.Cloud {
	driveOnce.Do(func() {
		s := testenv.Scenario()
		lidar := testenv.LiDAR()
		rg := filters.NewRayGround(filters.DefaultRayGroundConfig())
		for k := 1; k < 250; k++ {
			snap := s.At(float64(k) / 10)
			_, noGround := rg.Split(lidar.Scan(&snap))
			driveClouds = append(driveClouds, noGround)
		}
	})
	return driveClouds
}
