// Package lidardet implements euclidean_cluster: LiDAR object detection
// by region-growing over a k-d tree of the non-ground cloud, producing
// clusters with centroids, hulls and bounding dimensions — objects with
// position and volume but no class, exactly the role the node plays in
// Autoware's detection layer.
package lidardet

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/work"
)

// TopicObjects is the cluster detection output.
const TopicObjects = "/detection/lidar_detector/objects"

// Config parameterizes the clusterer.
type Config struct {
	// Tolerance is the neighbor distance for region growing, meters.
	Tolerance float64
	// MinPoints, MaxPoints bound accepted cluster sizes.
	MinPoints int
	MaxPoints int
	// MaxRange discards points beyond this distance before clustering.
	MaxRange float64
	// GPUAssist models the CUDA nearest-neighbor offload Autoware's GPU
	// build uses; when true, part of the search cost is issued as GPU
	// kernels (Table V shows euclidean_cluster with a GPU share).
	GPUAssist  bool
	QueueDepth int
}

// DefaultConfig returns the stock configuration.
func DefaultConfig() Config {
	return Config{
		Tolerance:  0.8,
		MinPoints:  5,
		MaxPoints:  4000,
		MaxRange:   45,
		GPUAssist:  true,
		QueueDepth: 1,
	}
}

// Cluster is the euclidean_cluster node.
type Cluster struct {
	cfg Config
	// lastTraversal is the k-d tree traversal count of the last run:
	// the steps of the radius queries the per-point region growing
	// makes, which Process's work model reads.
	lastTraversal int

	// Per-frame scratch, reused across callbacks: the range-gated
	// positions, the k-d tree (rebuilt in place each frame), the grid of
	// unvisited points, and the region-growing working sets.
	pts      []geom.Vec3
	tree     *pointcloud.KDTree
	cols     columns
	frontier []int32
	found    []uint64
	queried  []int32
	member   []int32
	hullBuf  []geom.Vec2
}

// New builds the node.
func New(cfg Config) *Cluster {
	if !(cfg.Tolerance > 0 && cfg.Tolerance <= math.MaxFloat64) || cfg.MinPoints < 1 {
		panic("lidardet: invalid config")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	return &Cluster{cfg: cfg}
}

// Name implements ros.Node.
func (c *Cluster) Name() string { return "euclidean_cluster" }

// Subscribes implements ros.Node.
func (c *Cluster) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: filters.TopicPointsNoGround, Depth: c.cfg.QueueDepth}}
}

// Extract runs clustering on a cloud (ego frame) and returns the
// detected objects; exported for tests and examples.
//
// The clusters, and lastTraversal, are those of region growing that
// runs one k-d radius query per popped point and pushes the query's
// unvisited matches in the order it returns them; but no query runs.
// A query's unvisited matches are the unvisited points within the
// tolerance that its pruned walk reaches: they are taken from the grid
// of unvisited points and pushed in OrderKey order. lastTraversal is
// the tree's bulk step count over the queried points, which are all
// but those a MaxPoints break leaves unpopped or pops past the cap.
func (c *Cluster) Extract(cloud *pointcloud.Cloud) []msgs.DetectedObject {
	// Range gate into the reused position buffer. A NaN X or Y fails the
	// range test; a NaN Z is dropped too, since the k-d tree needs
	// NaN-free points.
	pts := c.pts[:0]
	maxR2 := c.cfg.MaxRange * c.cfg.MaxRange
	for _, p := range cloud.Points {
		if p.Pos.XY().NormSq() <= maxR2 && !math.IsNaN(p.Pos.Z) {
			pts = append(pts, p.Pos)
		}
	}
	c.pts = pts
	if len(pts) == 0 {
		return nil
	}
	if c.tree == nil {
		c.tree = pointcloud.NewKDTree(pts)
	} else {
		c.tree.Rebuild(pts)
	}
	c.cols.reset(pts, c.cfg.Tolerance)
	c.queried = c.queried[:0]
	var out []msgs.DetectedObject
	id := 0
	for seed := range pts {
		if c.cols.visited(int32(seed)) {
			continue
		}
		c.cols.remove(int32(seed))
		c.frontier = append(c.frontier[:0], int32(seed))
		member := c.member[:0]
		for len(c.frontier) > 0 {
			cur := c.frontier[len(c.frontier)-1]
			c.frontier = c.frontier[:len(c.frontier)-1]
			member = append(member, cur)
			if len(member) > c.cfg.MaxPoints {
				break
			}
			c.queried = append(c.queried, cur)
			c.found = c.cols.take(c.tree, pts[cur], c.cfg.Tolerance, c.found[:0])
			for _, f := range c.found {
				c.frontier = append(c.frontier, int32(uint32(f)))
			}
		}
		c.member = member
		if len(member) < c.cfg.MinPoints || len(member) > c.cfg.MaxPoints {
			continue
		}
		out = append(out, c.summarize(pts, member, &id))
	}
	c.lastTraversal = c.tree.SumRadiusSteps(c.queried, c.cfg.Tolerance)
	return out
}

// summarize converts one cluster's member indices into a DetectedObject.
func (c *Cluster) summarize(pts []geom.Vec3, member []int32, id *int) msgs.DetectedObject {
	var centroid geom.Vec3
	box := geom.EmptyAABB3()
	ground := c.hullBuf[:0]
	for _, idx := range member {
		p := pts[idx]
		centroid = centroid.Add(p)
		box.Expand(p)
		ground = append(ground, p.XY())
	}
	c.hullBuf = ground
	centroid = centroid.Scale(1 / float64(len(member)))
	// ConvexHull copies its input, so the reused buffer never escapes.
	hull := geom.ConvexHull(ground)
	size := box.Size()
	*id++
	return msgs.DetectedObject{
		ID:         *id,
		Label:      msgs.LabelUnknown,
		Score:      0.5,
		Pose:       geom.Pose{Pos: geom.V3(centroid.X, centroid.Y, box.Min.Z), Yaw: 0},
		Dim:        geom.V3(size.X, size.Y, size.Z),
		Hull:       hull,
		PointCount: len(member),
	}
}

// Process implements ros.Node.
func (c *Cluster) Process(in *ros.Message, _ time.Duration) ros.Result {
	pc, ok := in.Payload.(*msgs.PointCloud)
	if !ok {
		return ros.Result{}
	}
	objects := c.Extract(pc.Cloud)

	n := float64(pc.Cloud.Len())
	trav := float64(c.lastTraversal)
	nObj := float64(len(objects))
	// trav is the node visits of the search Autoware's region growing
	// runs, one k-d radius query per popped point. Virtual time charges
	// that reference search, not the bulk count and grid that Extract
	// runs on the host to reproduce its result and its count.
	w := work.Work{
		// Tree build: n log n; growth: traversal-dominated pointer
		// chasing — the source of this node's worst-in-table L1 miss
		// rates (paper Table VII: 4.66%/5.21% read/write misses).
		IntOps:    14*trav + 30*n,
		FPOps:     6*trav + 12*n,
		LoadOps:   16*trav + 22*n,
		StoreOps:  5*trav + 9*n,
		BranchOps: 7*trav + 6*n,
		// Scattered tree-node records; each visit is a potential miss.
		BytesTouched: 72*trav + 48*n + 2048*nObj,
	}
	if c.cfg.GPUAssist {
		// Modeled CUDA neighbor-search offload: the iterative region-
		// growing expansion re-scans pairwise distance tiles every pass
		// (~25 passes on typical scans), at the low sustained efficiency
		// of an irregular scatter/gather kernel.
		w.Kernels = append(w.Kernels, work.GPUKernel{
			Name:       "euclidean_cluster/nn_expand",
			FMAs:       n * n * 3 * 25,
			Bytes:      n*n*4 + 1<<20,
			Efficiency: 0.015,
		})
	}
	return ros.Result{
		Outputs: []ros.Output{{
			Topic:   TopicObjects,
			Payload: &msgs.DetectedObjectArray{Objects: objects},
			FrameID: "ego",
		}},
		Work: w,
	}
}
