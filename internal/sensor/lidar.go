// Package sensor synthesizes the vehicle's sensor suite from world
// ground truth: a spinning multi-beam LiDAR (ray-cast against the city
// and the traffic actors), a pinhole camera producing both a pixel
// tensor and ground-truth 2D boxes, and GNSS/IMU models. It replaces
// the paper's recorded Nagoya ROSBAG with a generator that produces the
// same kind of scene-dependent, time-varying workload.
package sensor

import (
	"math"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/pointcloud"
	"repro/internal/world"
)

// LiDARConfig describes the spinning scanner. The default approximates a
// 16-beam unit, scaled for simulation throughput while preserving the
// point-cloud structure (rings, 360° azimuth coverage).
type LiDARConfig struct {
	Beams        int
	AzimuthSteps int
	MinVertDeg   float64
	MaxVertDeg   float64
	MaxRange     float64
	// Mount is the sensor pose in the ego frame.
	Mount geom.Pose
	// RangeNoise is the 1-sigma radial noise in meters.
	RangeNoise float64
	// DropProb is the chance an individual return is lost.
	DropProb float64
	Seed     uint64
}

// DefaultLiDARConfig returns the standard scanner used by the drive.
func DefaultLiDARConfig() LiDARConfig {
	return LiDARConfig{
		Beams:        16,
		AzimuthSteps: 360,
		MinVertDeg:   -15,
		MaxVertDeg:   10,
		MaxRange:     80,
		Mount:        geom.NewPose(0, 0, 1.9, 0),
		RangeNoise:   0.02,
		DropProb:     0.03,
		Seed:         0x11DA2,
	}
}

// LiDAR casts rays against the static city and the dynamic actors.
type LiDAR struct {
	cfg  LiDARConfig
	city *world.City
	rng  *mathx.RNG
	// Precomputed beam elevations (sin/cos pairs).
	sinEl, cosEl []float64
}

// NewLiDAR builds the scanner for a city.
func NewLiDAR(cfg LiDARConfig, city *world.City) *LiDAR {
	if cfg.Beams <= 0 || cfg.AzimuthSteps <= 0 {
		panic("sensor: invalid LiDAR config")
	}
	l := &LiDAR{cfg: cfg, city: city, rng: mathx.NewRNG(cfg.Seed)}
	for b := 0; b < cfg.Beams; b++ {
		frac := 0.0
		if cfg.Beams > 1 {
			frac = float64(b) / float64(cfg.Beams-1)
		}
		el := (cfg.MinVertDeg + frac*(cfg.MaxVertDeg-cfg.MinVertDeg)) * math.Pi / 180
		s, c := math.Sincos(el)
		l.sinEl = append(l.sinEl, s)
		l.cosEl = append(l.cosEl, c)
	}
	return l
}

// Scan produces one full revolution as a cloud in the *ego* frame. The
// returned cloud's rings identify the source beam.
func (l *LiDAR) Scan(snap *world.Snapshot) *pointcloud.Cloud {
	egoPose := snap.Ego.Pose
	sensorPose := egoPose.Compose(l.cfg.Mount)
	origin := sensorPose.Pos

	// Broad-phase: collect nearby actor boxes once per scan.
	targets := make([]target, 0, len(snap.Actors))
	for _, a := range snap.Actors {
		if a.Pose.XY().Dist(egoPose.XY()) > l.cfg.MaxRange+10 {
			continue
		}
		targets = append(targets, target{state: a, box: a.BodyBox()})
	}

	cloud := pointcloud.New(l.cfg.Beams * l.cfg.AzimuthSteps)
	for az := 0; az < l.cfg.AzimuthSteps; az++ {
		theta := sensorPose.Yaw + 2*math.Pi*float64(az)/float64(l.cfg.AzimuthSteps)
		sA, cA := math.Sincos(theta)
		for b := 0; b < l.cfg.Beams; b++ {
			dir := geom.V3(cA*l.cosEl[b], sA*l.cosEl[b], l.sinEl[b])
			dist, hit, intensity := l.castOne(origin, dir, targets)
			if !hit {
				continue
			}
			if l.cfg.DropProb > 0 && l.rng.Bool(l.cfg.DropProb) {
				continue
			}
			if l.cfg.RangeNoise > 0 {
				dist += l.rng.NormScaled(0, l.cfg.RangeNoise)
				if dist <= 0.1 {
					continue
				}
			}
			worldPt := origin.Add(dir.Scale(dist))
			cloud.Append(pointcloud.Point{
				Pos:       egoPose.Inverse(worldPt),
				Intensity: intensity,
				Ring:      b,
			})
		}
	}
	return cloud
}

// target is a broad-phase entry: an actor plus its world-frame bound.
type target struct {
	state world.ActorState
	box   geom.AABB3
}

// castOne intersects one ray with city and actors, returning the nearest
// hit distance, whether anything was hit, and a synthetic intensity.
func (l *LiDAR) castOne(origin, dir geom.Vec3, targets []target) (float64, bool, float64) {
	best, hit := l.city.CastRay(origin, dir, l.cfg.MaxRange)
	intensity := 0.3 // ground/building reflectivity
	for _, t := range targets {
		// Broad-phase AABB test first.
		limit := l.cfg.MaxRange
		if hit {
			limit = best
		}
		if _, ok := t.box.RayHit(origin, dir, limit); !ok {
			continue
		}
		// Exact: transform the ray into the actor's frame and slab-test
		// against the local body box.
		lo := t.state.Pose.Inverse(origin)
		s, c := math.Sincos(-t.state.Pose.Yaw)
		ld := geom.V3(dir.X*c-dir.Y*s, dir.X*s+dir.Y*c, dir.Z)
		local := geom.NewAABB3(
			geom.V3(-t.state.Dim.X/2, -t.state.Dim.Y/2, 0),
			geom.V3(t.state.Dim.X/2, t.state.Dim.Y/2, t.state.Dim.Z),
		)
		if tt, ok := local.RayHit(lo, ld, limit); ok && (!hit || tt < best) {
			best = tt
			hit = true
			intensity = 0.7 // vehicle/pedestrian body
		}
	}
	return best, hit, intensity
}

// Config returns the scanner configuration.
func (l *LiDAR) Config() LiDARConfig { return l.cfg }
