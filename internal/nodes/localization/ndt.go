// Package localization implements ndt_matching: scan-to-map alignment
// using the Normal Distributions Transform over the HD map's voxel
// Gaussians, with GNSS initialization and IMU-based motion prediction —
// the same structure as Autoware's localization pipeline.
package localization

import (
	"math"
	"time"

	"repro/internal/geom"
	"repro/internal/hdmap"
	"repro/internal/mathx"
	"repro/internal/msgs"
	"repro/internal/nodes/filters"
	"repro/internal/pointcloud"
	"repro/internal/ros"
	"repro/internal/work"
)

// Topic names owned by this package.
const (
	TopicGNSS        = "/gnss_pose"
	TopicIMU         = "/imu_raw"
	TopicCurrentPose = "/current_pose"
)

// Config parameterizes the matcher.
type Config struct {
	// MaxIterations bounds the Gauss-Newton loop.
	MaxIterations int
	// Epsilon is the convergence threshold on the update step norm.
	Epsilon float64
	// StepScale damps the Newton step.
	StepScale float64
	// OutlierMahalanobis rejects correspondences with squared
	// Mahalanobis distance beyond this value.
	OutlierMahalanobis float64
	QueueDepth         int
}

// DefaultConfig returns the stock configuration.
func DefaultConfig() Config {
	return Config{
		MaxIterations:      20,
		Epsilon:            1e-3,
		StepScale:          0.7,
		OutlierMahalanobis: 400,
		QueueDepth:         2,
	}
}

// NDTMatching is the ndt_matching node.
type NDTMatching struct {
	cfg Config
	m   *hdmap.Map

	pose         geom.Pose
	initialized  bool
	lastStamp    time.Duration
	lastIMUStamp time.Duration
	lastIMU      *msgs.IMU
	lastGNSS     *msgs.GNSS

	// Gauss-Newton scratch reused across iterations and scans: the
	// gradient, the 3x3 Hessian approximation, and the voxel buffer.
	grad [3]float64
	hess *mathx.Mat
	vbuf []*pointcloud.VoxelStats
}

// New builds the node against a prebuilt HD map.
func New(cfg Config, m *hdmap.Map) *NDTMatching {
	if m == nil {
		panic("localization: nil map")
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 20
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1
	}
	return &NDTMatching{cfg: cfg, m: m}
}

// Name implements ros.Node.
func (n *NDTMatching) Name() string { return "ndt_matching" }

// Subscribes implements ros.Node.
func (n *NDTMatching) Subscribes() []ros.SubSpec {
	return []ros.SubSpec{
		{Topic: filters.TopicFilteredPoints, Depth: n.cfg.QueueDepth},
		{Topic: TopicGNSS, Depth: 1},
		// High-rate IMU samples queue while a scan alignment runs and
		// drain right after; a deeper queue avoids spurious drops.
		{Topic: TopicIMU, Depth: 10},
	}
}

// Pose returns the current estimate (valid after initialization).
func (n *NDTMatching) Pose() (geom.Pose, bool) { return n.pose, n.initialized }

// Process implements ros.Node.
func (n *NDTMatching) Process(in *ros.Message, now time.Duration) ros.Result {
	switch payload := in.Payload.(type) {
	case *msgs.GNSS:
		n.lastGNSS = payload
		return ros.Result{Work: work.Work{IntOps: 200, LoadOps: 80, StoreOps: 40, BranchOps: 30, BytesTouched: 256}}
	case *msgs.IMU:
		// Continuous dead reckoning: the pose integrates on the IMU
		// stream itself, so it coasts through LiDAR gaps; scan matching
		// then corrects the accumulated drift.
		if n.initialized && n.lastIMUStamp > 0 {
			dt := (in.Header.Stamp - n.lastIMUStamp).Seconds()
			if dt > 0 && dt < 1 {
				tw := geom.Twist{Linear: payload.Sample.Speed, Angular: payload.Sample.YawRate}
				n.pose = tw.Integrate(n.pose, dt)
			}
		}
		n.lastIMUStamp = in.Header.Stamp
		n.lastIMU = payload
		return ros.Result{Work: work.Work{IntOps: 150, FPOps: 60, LoadOps: 60, StoreOps: 30, BranchOps: 20, BytesTouched: 192}}
	case *msgs.PointCloud:
		return n.match(in, payload)
	default:
		return ros.Result{}
	}
}

func (n *NDTMatching) match(in *ros.Message, pc *msgs.PointCloud) ros.Result {
	stamp := in.Header.Stamp
	// Bridge the gap between the last IMU sample and this scan's
	// capture time with the latest twist.
	if n.initialized && n.lastIMU != nil && n.lastIMUStamp > 0 {
		dt := (stamp - n.lastIMUStamp).Seconds()
		if dt > 0 && dt < 1 {
			tw := geom.Twist{Linear: n.lastIMU.Sample.Speed, Angular: n.lastIMU.Sample.YawRate}
			n.pose = tw.Integrate(n.pose, dt)
			n.lastIMUStamp = stamp
		}
	}
	n.lastStamp = stamp
	if !n.initialized {
		if n.lastGNSS == nil {
			// Nothing to anchor to yet.
			return ros.Result{Work: work.Work{IntOps: 500, LoadOps: 200, BranchOps: 100, BytesTouched: 1 << 10}}
		}
		n.pose = n.bootstrap(pc.Cloud)
		n.initialized = true
	}

	pose, fitness, iters, _, lookups := n.align(pc.Cloud, n.pose)
	n.pose = pose

	np := float64(pc.Cloud.Len())
	it := float64(iters)
	lk := float64(lookups)
	w := work.Work{
		// Per iteration per point: rigid transform (FP), voxel hash
		// lookup (int + loads over tree-like voxel records), gradient
		// and Hessian accumulation (FP heavy).
		FPOps:     it*np*95 + 400,
		IntOps:    lk*14 + it*np*12,
		LoadOps:   lk*9 + it*np*26,
		StoreOps:  it * np * 9,
		BranchOps: lk*4 + it*np*7,
		// PCL-style traversal touches scattered voxel records.
		BytesTouched: lk*96 + np*32,
	}
	return ros.Result{
		Outputs: []ros.Output{{
			Topic:   TopicCurrentPose,
			Payload: &msgs.PoseStamped{Pose: pose, Fitness: fitness, Iterations: iters},
			FrameID: "map",
		}},
		Work: w,
	}
}

// bootstrap searches a coarse position grid around the last GNSS fix
// (covering its meter-level uncertainty) crossed with candidate
// headings, and returns the best-scoring pose — the "GNSS indicates an
// initial position for the matching algorithm to start its search" step
// of the paper's localization description.
func (n *NDTMatching) bootstrap(cloud *pointcloud.Cloud) geom.Pose {
	anchor := geom.V3(n.lastGNSS.Fix.Pos.X, n.lastGNSS.Fix.Pos.Y, 0)
	span := math.Max(2, 1.5*n.lastGNSS.Fix.Sigma)
	best := geom.Pose{Pos: anchor}
	bestScore := math.Inf(-1)
	for dx := -span; dx <= span+1e-9; dx += 0.5 {
		for dy := -span; dy <= span+1e-9; dy += 0.5 {
			for k := 0; k < 16; k++ {
				yaw := 2 * math.Pi * float64(k) / 16
				pose := geom.Pose{Pos: anchor.Add(geom.V3(dx, dy, 0)), Yaw: yaw}
				score, _, _ := n.score(cloud, pose, 16)
				if score > bestScore {
					bestScore, best = score, pose
				}
			}
		}
	}
	return best
}

// score evaluates the NDT likelihood of the cloud at a pose, sampling
// every 'stride'-th point. Returns score, matched count, lookups.
func (n *NDTMatching) score(cloud *pointcloud.Cloud, pose geom.Pose, stride int) (float64, int, int) {
	if stride < 1 {
		stride = 1
	}
	score := 0.0
	matched, lookups := 0, 0
	var buf []*pointcloud.VoxelStats
	for i := 0; i < cloud.Len(); i += stride {
		wp := pose.Transform(cloud.Points[i].Pos)
		lookups += 7
		buf = n.m.Direct7(wp, buf[:0])
		hit := false
		for _, vs := range buf {
			d2 := vs.MahalanobisSq(wp)
			if d2 > n.cfg.OutlierMahalanobis {
				continue
			}
			w := 1.0
			if d2 > 9 {
				w = 9 / d2
			}
			score += w
			hit = true
		}
		if hit {
			matched++
		}
	}
	return score, matched, lookups
}

// align runs damped Gauss-Newton over (x, y, yaw), maximizing the sum
// of per-point Gaussian scores against the map voxels.
func (n *NDTMatching) align(cloud *pointcloud.Cloud, init geom.Pose) (pose geom.Pose, fitness float64, iters, matched, lookups int) {
	pose = init
	buf := n.vbuf
	defer func() { n.vbuf = buf }()
	if n.hess == nil {
		n.hess = mathx.NewMat(3, 3)
	}
	for iters = 1; iters <= n.cfg.MaxIterations; iters++ {
		g := n.grad[:]
		g[0], g[1], g[2] = 0, 0, 0
		h := n.hess // Gauss-Newton Hessian approximation
		for i := range h.Data {
			h.Data[i] = 0
		}
		sumD2, m, lk := 0.0, 0, 0 // fitness bookkeeping
		s, c := math.Sincos(pose.Yaw)
		for i := range cloud.Points {
			lp := cloud.Points[i].Pos
			wp := pose.Transform(lp)
			lk += 7
			buf = n.m.Direct7(wp, buf[:0])
			pointHit := false
			for _, vs := range buf {
				d := wp.Sub(vs.Mean)
				// Sigma^-1 * d over the upper triangle, each lower term
				// read from its mirror in the same operand order.
				ic := &vs.InvCov
				sd := [3]float64{
					ic[0]*d.X + ic[1]*d.Y + ic[2]*d.Z,
					ic[1]*d.X + ic[3]*d.Y + ic[4]*d.Z,
					ic[2]*d.X + ic[4]*d.Y + ic[5]*d.Z,
				}
				d2 := d.X*sd[0] + d.Y*sd[1] + d.Z*sd[2]
				if d2 > n.cfg.OutlierMahalanobis {
					continue
				}
				// Robust (Cauchy/IRLS) weight: quadratic near the
				// surface, 1/d2 in the tail, so displaced scans still
				// see a usable gradient. See DESIGN.md on robustified
				// NDT for the synthetic map.
				wgt := 1.0
				if d2 > 9 {
					wgt = 9 / d2
				}
				sumD2 += d2
				pointHit = true
				// Jacobian of the transformed point wrt (tx, ty, yaw).
				// d(wp)/dtx = (1,0,0); /dty = (0,1,0);
				// /dyaw = (-x sin - y cos, x cos - y sin, 0) local coords.
				jYawX := -lp.X*s - lp.Y*c
				jYawY := lp.X*c - lp.Y*s
				// J^T Sigma^-1 d  (rows: tx, ty, yaw)
				g[0] += wgt * sd[0]
				g[1] += wgt * sd[1]
				g[2] += wgt * (jYawX*sd[0] + jYawY*sd[1])
				// J^T Sigma^-1 J over columns e0, e1, jy.
				s00, s01, s11 := ic[0], ic[1], ic[3]
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
			// Too little overlap with the map; hold the prediction.
			fitness = math.Inf(1)
			return pose, fitness, iters, matched, lookups
		}
		fitness = sumD2 / float64(m)
		// Solve H dx = -g (descend the negative log-likelihood).
		h.AddDiag(1e-6 + 0.01*h.At(0, 0)) // Levenberg damping
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
