// Package hdmap builds the point-cloud map the localization stack
// matches against. The paper, lacking an HD map for its Nagoya drive,
// generated one from the recording with Autoware's ndt_mapping utility;
// this package is the equivalent step for the synthetic world: it sweeps
// the LiDAR along the ego route through the *static* city (maps are
// built without traffic), accumulates the returns in the world frame,
// and distills them into the voxelized Normal Distributions Transform
// grid consumed by ndt_matching.
package hdmap

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/pointcloud"
	"repro/internal/sensor"
	"repro/internal/world"
)

// Config parameterizes map construction.
type Config struct {
	// ScanSpacing is the distance between mapping scans along the route,
	// meters.
	ScanSpacing float64
	// MapLeaf is the voxel size used to thin the accumulated cloud.
	MapLeaf float64
	// NDTLeaf is the voxel size of the NDT statistics grid.
	NDTLeaf float64
	// MinVoxelPoints is the minimum population for a usable NDT voxel.
	MinVoxelPoints int
	// LiDAR overrides the scanner; zero value uses the default scanner
	// with noise disabled (mapping rigs are calibrated).
	LiDAR sensor.LiDARConfig
}

// DefaultConfig returns the mapping configuration every run's map is
// built with: a scan every 10 m covers the whole route (Coverage 100%).
func DefaultConfig() Config {
	lc := sensor.DefaultLiDARConfig()
	lc.RangeNoise = 0
	lc.DropProb = 0
	return Config{
		ScanSpacing:    10,
		MapLeaf:        0.4,
		NDTLeaf:        2.0,
		MinVoxelPoints: 4,
		LiDAR:          lc,
	}
}

// Map is the run-time product: the NDT grid that ndt_matching scores
// scans against, which holds only the usable voxel Gaussians. The map
// keeps no points; the thinned cloud lives in a Sweep, which exists
// while a map is built or saved.
type Map struct {
	NDT     *pointcloud.VoxelGrid
	NDTLeaf float64
	// Scans is the number of mapping sweeps that contributed.
	Scans int
}

// Sweep is the mapping sweep's product: the thinned world-frame cloud
// and what building the NDT grid from it takes. The map file stores a
// Sweep; Map builds the grid from it, as Autoware builds its NDT grid
// from a point map at load time.
type Sweep struct {
	Cloud          *pointcloud.Cloud
	Scans          int
	NDTLeaf        float64
	MinVoxelPoints int
}

// Build runs the mapping sweep over the scenario's ego route and builds
// the NDT grid from it. The swept cloud is dropped on return.
func Build(s *world.Scenario, cfg Config) (*Map, error) {
	sw, err := SweepRoute(s, cfg)
	if err != nil {
		return nil, err
	}
	return sw.Map(), nil
}

// SweepRoute drives the mapping rig along the scenario's ego route and
// returns the accumulated cloud, thinned to MapLeaf.
func SweepRoute(s *world.Scenario, cfg Config) (*Sweep, error) {
	if cfg.ScanSpacing <= 0 || cfg.MapLeaf <= 0 || cfg.NDTLeaf <= 0 {
		return nil, fmt.Errorf("hdmap: invalid config %+v", cfg)
	}
	lc := cfg.LiDAR
	if lc == (sensor.LiDARConfig{}) {
		lc = DefaultConfig().LiDAR
	}
	if lc.Beams <= 0 || lc.AzimuthSteps <= 0 {
		return nil, fmt.Errorf("hdmap: invalid LiDAR config %+v", lc)
	}
	lidar := sensor.NewLiDAR(lc, s.City)
	// The accumulator is thinned once it passes thinAt points, so one
	// more scan always fits without regrowing it.
	const thinAt = 1 << 20
	acc := pointcloud.New(thinAt + lc.Beams*lc.AzimuthSteps)
	scratch := pointcloud.New(0)

	// Walk the route by time, emitting a scan every ScanSpacing meters.
	duration := s.EgoRoute.Duration()
	const dt = 0.2
	var lastPos geom.Vec2
	havePos := false
	scans := 0
	for t := 0.0; t < duration; t += dt {
		pose, _ := s.EgoRoute.At(t)
		if havePos && pose.XY().Dist(lastPos) < cfg.ScanSpacing {
			continue
		}
		lastPos = pose.XY()
		havePos = true
		snap := world.Snapshot{
			Time: t,
			Ego: world.ActorState{
				Pose: pose, Kind: world.KindCar, Dim: world.KindCar.Dimensions(),
			},
			// No traffic: the map captures only static structure.
		}
		scan := lidar.Scan(&snap)
		// Register into the world frame with the known mapping pose,
		// through a reused staging cloud.
		wsc := scan.TransformInto(pose, scratch)
		acc.Points = append(acc.Points, wsc.Points...)
		// Thin periodically to bound memory, in place so the
		// accumulator keeps its capacity.
		if acc.Len() > thinAt {
			pointcloud.VoxelDownsampleInto(acc, cfg.MapLeaf, acc)
		}
		scans++
	}
	if scans == 0 {
		return nil, fmt.Errorf("hdmap: route produced no scans")
	}
	thinned, _ := pointcloud.VoxelDownsample(acc, cfg.MapLeaf)
	return &Sweep{
		Cloud:          thinned,
		Scans:          scans,
		NDTLeaf:        cfg.NDTLeaf,
		MinVoxelPoints: cfg.MinVoxelPoints,
	}, nil
}

// Map builds the NDT grid from the swept cloud.
func (sw *Sweep) Map() *Map {
	return &Map{
		NDT:     pointcloud.BuildVoxelStats(sw.Cloud, sw.NDTLeaf, sw.MinVoxelPoints),
		NDTLeaf: sw.NDTLeaf,
		Scans:   sw.Scans,
	}
}

// VoxelAt returns the NDT statistics voxel containing p, or nil when the
// voxel is unmapped or unusable.
func (m *Map) VoxelAt(p geom.Vec3) *pointcloud.VoxelStats {
	return m.NDT.Lookup(pointcloud.KeyFor(p, m.NDTLeaf))
}

// Direct7 appends to out the usable voxels among the containing cell
// and its six face neighbors — the DIRECT7 neighborhood PCL's NDT
// accumulates its score over. Passing a reused slice avoids allocation
// in the matching hot loop.
func (m *Map) Direct7(p geom.Vec3, out []*pointcloud.VoxelStats) []*pointcloud.VoxelStats {
	return m.NDT.Direct7(pointcloud.KeyFor(p, m.NDTLeaf), out)
}

// NeighborVoxels returns the usable voxels in the 3x3x3 neighborhood of
// p's voxel, nearest first by mean distance. The NDT score in matching
// sums over these.
func (m *Map) NeighborVoxels(p geom.Vec3) []*pointcloud.VoxelStats {
	base := pointcloud.KeyFor(p, m.NDTLeaf)
	var out []*pointcloud.VoxelStats
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				k := pointcloud.VoxelKey{X: base.X + dx, Y: base.Y + dy, Z: base.Z + dz}
				if vs := m.NDT.Lookup(k); vs != nil {
					out = append(out, vs)
				}
			}
		}
	}
	// Sort by distance to p (selection sort; list has at most 27 items).
	for i := 0; i < len(out); i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].Mean.DistSq(p) < out[best].Mean.DistSq(p) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out
}

// Coverage reports the fraction of route sample points whose NDT voxel
// neighborhood is usable — a map-quality sanity metric: a probe counts
// when its 3×3×3 voxel neighborhood holds at least one usable voxel.
func (m *Map) Coverage(s *world.Scenario, samples int) float64 {
	if samples <= 0 {
		return 0
	}
	hit := 0
	duration := s.EgoRoute.Duration()
	for i := 0; i < samples; i++ {
		t := duration * float64(i) / float64(samples)
		pose, _ := s.EgoRoute.At(t)
		// Probe at sensor height where wall/ground structure lives.
		probe := pose.Pos.Add(geom.V3(0, 0, 1))
		if len(m.NeighborVoxels(probe)) > 0 {
			hit++
		}
	}
	return float64(hit) / float64(samples)
}
