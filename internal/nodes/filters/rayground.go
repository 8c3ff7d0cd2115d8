package filters

import (
	"math"
	"time"

	"repro/internal/msgs"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/work"
)

// RayGroundConfig parameterizes the ground filter.
type RayGroundConfig struct {
	// Sectors is the number of azimuth bins the scan is split into;
	// each sector is processed as one "ray" walked radially outward.
	Sectors int
	// MaxSlope is the maximum ground slope, radians.
	MaxSlope float64
	// InitialHeight is the sensor height used to seed the ground line
	// at range zero (points near -InitialHeight in the ego frame are
	// ground candidates).
	InitialHeight float64
	// HeightMargin is the tolerance above the running ground estimate.
	HeightMargin float64
	QueueDepth   int
}

// DefaultRayGroundConfig returns the stock configuration.
func DefaultRayGroundConfig() RayGroundConfig {
	return RayGroundConfig{
		Sectors:       360,
		MaxSlope:      0.18,
		InitialHeight: 0,
		HeightMargin:  0.08,
		QueueDepth:    1,
	}
}

// RayGround is the ray_ground_filter node: it walks each azimuth ray
// outward, tracking the ground elevation profile, and splits the cloud
// into ground and non-ground sets.
type RayGround struct {
	cfg RayGroundConfig
	// sortSteps counts comparison iterations of the last Process, used
	// by the work model.
	sortSteps float64

	// Per-frame scratch, reused across callbacks (each node instance
	// processes one message at a time). secs/radii hold per-point sector
	// assignments, counts/starts back the counting sort, and order is
	// the sector-major point permutation.
	secs   []int32
	radii  []float64
	counts []int32
	starts []int32
	order  []int32
}

// NewRayGround builds the node.
func NewRayGround(cfg RayGroundConfig) *RayGround {
	if cfg.Sectors <= 0 {
		panic("filters: sectors must be positive")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	return &RayGround{cfg: cfg}
}

// Name implements ros.Node.
func (r *RayGround) Name() string { return "ray_ground_filter" }

// Subscribes implements ros.Node.
func (r *RayGround) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{{Topic: TopicPointsRaw, Depth: r.cfg.QueueDepth}}
}

// Split performs the actual classification; exported for direct use in
// tests and examples.
func (r *RayGround) Split(cloud *pointcloud.Cloud) (ground, noGround *pointcloud.Cloud) {
	n := cloud.Len()
	nsec := r.cfg.Sectors
	r.ensureScratch(n, nsec)

	// Pass 1: per-point sector and radius.
	pts := cloud.Points
	for i := range pts {
		p := &pts[i]
		az := math.Atan2(p.Pos.Y, p.Pos.X)
		sec := int((az + math.Pi) / (2 * math.Pi) * float64(nsec))
		if sec >= nsec {
			sec = nsec - 1
		}
		if sec < 0 {
			sec = 0
		}
		r.secs[i] = int32(sec)
		r.radii[i] = p.Pos.XY().Norm()
	}

	// Pass 2: counting sort into sector-major order (stable in point
	// index, matching the append order of a per-sector bucket build).
	for i := range r.counts {
		r.counts[i] = 0
	}
	for i := 0; i < n; i++ {
		r.counts[r.secs[i]]++
	}
	off := int32(0)
	for s := 0; s < nsec; s++ {
		r.starts[s] = off
		off += r.counts[s]
		r.counts[s] = r.starts[s] // reuse as running cursor
	}
	r.starts[nsec] = off
	for i := 0; i < n; i++ {
		s := r.secs[i]
		r.order[r.counts[s]] = int32(i)
		r.counts[s]++
	}

	// Pass 3: sort each sector by radius, summing the sort cost in
	// sector order.
	r.sortSteps = 0
	for s := 0; s < nsec; s++ {
		seg := r.order[r.starts[s]:r.starts[s+1]]
		if len(seg) == 0 {
			continue
		}
		sortByRadius(seg, r.radii)
		r.sortSteps += float64(len(seg)) * math.Log2(float64(len(seg))+1)
	}

	// Pass 4: walk each ray outward tracking the ground height.
	ground = pointcloud.New(n / 2)
	noGround = pointcloud.New(n / 2)
	tanSlope := math.Tan(r.cfg.MaxSlope)
	for s := 0; s < nsec; s++ {
		seg := r.order[r.starts[s]:r.starts[s+1]]
		if len(seg) == 0 {
			continue
		}
		prevR := 0.0
		prevZ := r.cfg.InitialHeight
		for _, idx := range seg {
			p := pts[idx]
			radius := r.radii[idx]
			dr := radius - prevR
			allowed := prevZ + dr*tanSlope + r.cfg.HeightMargin
			if p.Pos.Z <= allowed {
				ground.Append(p)
				// Ground estimate follows the terrain.
				prevZ = p.Pos.Z
				prevR = radius
			} else {
				noGround.Append(p)
			}
		}
	}
	return ground, noGround
}

// ensureScratch sizes the reusable buffers for n points and nsec sectors.
func (r *RayGround) ensureScratch(n, nsec int) {
	if cap(r.secs) < n {
		r.secs = make([]int32, n)
		r.radii = make([]float64, n)
		r.order = make([]int32, n)
	}
	r.secs = r.secs[:n]
	r.radii = r.radii[:n]
	r.order = r.order[:n]
	if cap(r.counts) < nsec+1 {
		r.counts = make([]int32, nsec+1)
		r.starts = make([]int32, nsec+1)
	}
	r.counts = r.counts[:nsec+1]
	r.starts = r.starts[:nsec+1]
}

// sortByRadius orders a sector's point indices by (radius, index) —
// a total order, so every sorting algorithm yields the same result —
// using insertion sort: sectors are small (tens of points) and nearly
// sorted scan order makes it effectively linear.
func sortByRadius(seg []int32, radii []float64) {
	for i := 1; i < len(seg); i++ {
		v := seg[i]
		rv := radii[v]
		j := i - 1
		for j >= 0 && (radii[seg[j]] > rv || (radii[seg[j]] == rv && seg[j] > v)) {
			seg[j+1] = seg[j]
			j--
		}
		seg[j+1] = v
	}
}

// Process implements ros.Node.
func (r *RayGround) Process(in *ros.Message, _ time.Duration) ros.Result {
	pc, ok := in.Payload.(*msgs.PointCloud)
	if !ok {
		return ros.Result{}
	}
	ground, noGround := r.Split(pc.Cloud)

	n := float64(pc.Cloud.Len())
	w := work.Work{
		// Binning: atan2 + bucket append per point; walk: slope test.
		FPOps:     28 * n,
		IntOps:    10*n + 6*r.sortSteps,
		LoadOps:   12*n + 4*r.sortSteps,
		StoreOps:  6*n + 1.5*r.sortSteps,
		BranchOps: 6*n + 1.5*r.sortSteps,
		// The paper attributes ray_ground_filter ~20+ms means — it
		// re-traverses the full-resolution cloud several times.
		BytesTouched: 96 * n,
	}
	return ros.Result{
		Outputs: []ros.Output{
			{Topic: TopicPointsGround, Payload: &msgs.PointCloud{Cloud: ground}, FrameID: "ego"},
			{Topic: TopicPointsNoGround, Payload: &msgs.PointCloud{Cloud: noGround}, FrameID: "ego"},
		},
		Work: w,
	}
}
