package world

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// ScenarioConfig parameterizes the synthetic drive.
type ScenarioConfig struct {
	City CityConfig
	// Seed drives traffic placement (independent of city layout seed).
	Seed uint64
	// NumCars, NumPedestrians, NumCyclists control traffic volume.
	NumCars        int
	NumPedestrians int
	NumCyclists    int
	// EgoSpeed is the cruise speed of the ego vehicle, m/s.
	EgoSpeed float64
	// LeadVehicle adds a car driving the ego's own route a few seconds
	// ahead — a persistent nearby target for perception-quality tests.
	LeadVehicle bool
	// SplitStreams gives each traffic concern (cars, pedestrians,
	// cyclists, burst) its own RNG stream derived from Seed, so
	// mutating one population's knob cannot reshuffle the placement of
	// another — the property the adversarial search relies on to
	// attribute a latency change to the knob it actually turned.
	// The scripted default keeps the legacy shared stream (pinned by
	// historical golden hashes); generated configs always split.
	SplitStreams bool
	// Burst clusters extra pedestrians around one intersection —
	// a crossing platoon the ego repeatedly meets. Zero value disables.
	Burst PedBurst
	// Noise is the sensor-noise/weather profile the stack builder
	// applies to the sensor suite. The world itself is noise-free;
	// the profile rides in the scenario config so one sampled parameter
	// vector describes the whole drive. Zero value means clear weather
	// (stock sensor noise).
	Noise NoiseProfile
}

// PedBurst parameterizes a pedestrian burst: Count pedestrians with
// tight crossing loops clustered within Radius meters of the
// intersection at street index (Street, Street), phase-staggered by
// Stagger seconds so they cross as a platoon rather than a smear. The
// burst is the scene-density spike behind the object-dependent nodes'
// worst latencies (cluster counts, fusion pairs, tracker updates all
// scale with it).
type PedBurst struct {
	Count   int
	Street  int
	Radius  float64
	Stagger float64
}

// NoiseProfile describes sensor-degrading weather. Multipliers scale
// the stock sensor noise (1 = stock); LiDARDrop adds per-point return
// loss. A zero-value profile is clear weather and changes nothing.
type NoiseProfile struct {
	// Name labels the profile in reports ("clear", "rain", "fog", ...).
	Name string
	// LiDARRange multiplies the LiDAR 1-sigma radial noise (0 = stock).
	LiDARRange float64
	// LiDARDrop adds per-point return-drop probability in [0, 0.9].
	LiDARDrop float64
	// CameraPixel multiplies the camera 1-sigma pixel noise (0 = stock).
	CameraPixel float64
}

// IsZero reports whether the profile is clear weather (no overrides).
func (n NoiseProfile) IsZero() bool { return n == NoiseProfile{} }

// Validate rejects non-physical noise profiles, wrapping ErrNoiseConfig.
func (n NoiseProfile) Validate() error {
	switch {
	case !isFinite(n.LiDARRange) || n.LiDARRange < 0 || n.LiDARRange > 16:
		return fmt.Errorf("%w: lidar range-noise scale %v outside [0, 16]", ErrNoiseConfig, n.LiDARRange)
	case !isFinite(n.LiDARDrop) || n.LiDARDrop < 0 || n.LiDARDrop > 0.9:
		return fmt.Errorf("%w: lidar drop probability %v outside [0, 0.9]", ErrNoiseConfig, n.LiDARDrop)
	case !isFinite(n.CameraPixel) || n.CameraPixel < 0 || n.CameraPixel > 16:
		return fmt.Errorf("%w: camera pixel-noise scale %v outside [0, 16]", ErrNoiseConfig, n.CameraPixel)
	case !validProfileName(n.Name):
		return fmt.Errorf("%w: profile name %q (want lowercase [a-z0-9-], <= 24 chars)", ErrNoiseConfig, n.Name)
	}
	return nil
}

// validProfileName keeps profile labels codec-safe: short lowercase
// kebab-case with no whitespace or separators to escape.
func validProfileName(s string) bool {
	if len(s) > 24 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// DefaultScenarioConfig reproduces the profile of the paper's input: an
// 8-minute urban drive with moderate mixed traffic.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		City:           DefaultCityConfig(),
		Seed:           0x5CE11A,
		NumCars:        22,
		NumPedestrians: 18,
		NumCyclists:    6,
		EgoSpeed:       9,
	}
}

type scriptedActor struct {
	id    int
	kind  ActorKind
	route *Route
	// phase offsets the actor's clock so same-route actors don't stack.
	phase float64
}

// Scenario binds the static city, lane graph, ego route and traffic into
// one deterministic closed-form simulation.
type Scenario struct {
	City     *City
	Lanes    *LaneNetwork
	EgoRoute *Route
	actors   []scriptedActor
}

// NewScenario deterministically builds the scenario. It panics on an
// invalid config; generated or mutated configs should go through
// BuildScenario, which reports the problem as a sentinel error.
func NewScenario(cfg ScenarioConfig) *Scenario {
	s, err := BuildScenario(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate rejects configs the generator cannot realize as a valid
// drivable scenario. Every violation wraps one of the package's
// sentinel errors.
func (cfg ScenarioConfig) Validate() error {
	if err := cfg.City.Validate(); err != nil {
		return err
	}
	if cfg.City.Blocks < 3 {
		// The scripted ego loop and every traffic placement rule index
		// interior streets; below 3 blocks the loop degenerates to a
		// point and interior draws have no support.
		return fmt.Errorf("%w: %d blocks (need >= 3)", ErrCityTooSmall, cfg.City.Blocks)
	}
	if cfg.NumCars < 0 || cfg.NumPedestrians < 0 || cfg.NumCyclists < 0 {
		return fmt.Errorf("%w: negative population (%d cars, %d pedestrians, %d cyclists)",
			ErrTrafficConfig, cfg.NumCars, cfg.NumPedestrians, cfg.NumCyclists)
	}
	if cfg.NumCars > maxTrafficActors || cfg.NumPedestrians > maxTrafficActors || cfg.NumCyclists > maxTrafficActors {
		return fmt.Errorf("%w: population exceeds %d per class", ErrTrafficConfig, maxTrafficActors)
	}
	if !isFinite(cfg.EgoSpeed) || cfg.EgoSpeed <= 0 || cfg.EgoSpeed > 40 {
		return fmt.Errorf("%w: ego speed %v outside (0, 40] m/s", ErrEgoConfig, cfg.EgoSpeed)
	}
	if b := cfg.Burst; b.Count != 0 {
		switch {
		case b.Count < 0 || b.Count > maxTrafficActors:
			return fmt.Errorf("%w: count %d outside [0, %d]", ErrBurstConfig, b.Count, maxTrafficActors)
		case b.Street < 1 || b.Street > cfg.City.Blocks-1:
			return fmt.Errorf("%w: street %d outside the city interior [1, %d]", ErrBurstConfig, b.Street, cfg.City.Blocks-1)
		case !isFinite(b.Radius) || b.Radius <= 0 || b.Radius > cfg.City.BlockSize:
			return fmt.Errorf("%w: radius %v outside (0, block size]", ErrBurstConfig, b.Radius)
		case !isFinite(b.Stagger) || b.Stagger < 0 || b.Stagger > 30:
			return fmt.Errorf("%w: stagger %v outside [0, 30] s", ErrBurstConfig, b.Stagger)
		}
	}
	return cfg.Noise.Validate()
}

// BuildScenario deterministically builds the scenario, rejecting
// invalid configs with a sentinel error instead of panicking.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	city, err := BuildCity(cfg.City)
	if err != nil {
		return nil, err
	}
	lanes := NewLaneNetworkForCity(city, 13.9)
	s := &Scenario{
		City:     city,
		Lanes:    lanes,
		EgoRoute: buildEgoRoute(city, cfg.EgoSpeed),
	}
	// One shared stream reproduces the legacy draw order exactly (the
	// scripted default the golden hashes pin); split streams give each
	// concern an independent child so knob mutations stay local.
	rng := mathx.NewRNG(cfg.Seed)
	carRNG, pedRNG, cycRNG, burstRNG := rng, rng, rng, rng
	if cfg.SplitStreams {
		carRNG, pedRNG, cycRNG, burstRNG = rng.Split(), rng.Split(), rng.Split(), rng.Split()
	}
	id := 1
	bs := city.BlockSize
	if cfg.LeadVehicle {
		s.actors = append(s.actors, scriptedActor{
			id: id, kind: KindCar, route: s.EgoRoute, phase: 1.3,
		})
		id++
	}
	// Traffic cars: straight out-and-back runs along streets crossing
	// the ego loop, concentrated in the mid-city so scene density varies
	// along the drive.
	for i := 0; i < cfg.NumCars; i++ {
		horizontal := carRNG.Bool(0.5)
		street := 1 + carRNG.Intn(city.Blocks-1)
		if carRNG.Bool(0.45) {
			// Bias onto the streets the ego loop travels, so the drive
			// actually meets oncoming and crossing traffic — the
			// scene-content variation behind the object-dependent
			// nodes' latency spread.
			egoStreets := []int{1, city.Blocks / 2, city.Blocks - 1}
			street = egoStreets[carRNG.Intn(len(egoStreets))]
		}
		span0 := carRNG.Range(0.5, 2) * bs
		span1 := carRNG.Range(float64(city.Blocks)-2.5, float64(city.Blocks)-0.5) * bs
		laneOff := 3.0
		if carRNG.Bool(0.5) {
			laneOff = -3.0
		}
		speed := carRNG.Range(6, 12)
		var a, b geom.Vec2
		if horizontal {
			y := city.StreetCenter(street) + laneOff
			a, b = geom.V2(span0, y), geom.V2(span1, y)
		} else {
			x := city.StreetCenter(street) + laneOff
			a, b = geom.V2(x, span0), geom.V2(x, span1)
		}
		route := NewRouteBuilder(a, 0).
			DriveTo(b, speed).
			Dwell(carRNG.Range(2, 8)).
			DriveTo(a, speed).
			Dwell(carRNG.Range(2, 8)).
			Loop().
			Build()
		kind := KindCar
		if carRNG.Bool(0.15) {
			kind = KindTruck
		}
		s.actors = append(s.actors, scriptedActor{
			id: id, kind: kind, route: route, phase: carRNG.Range(0, route.Duration()),
		})
		id++
	}
	// Pedestrians: small rectangular loops on block corners near the
	// ego route.
	for i := 0; i < cfg.NumPedestrians; i++ {
		ix := 1 + pedRNG.Intn(city.Blocks-1)
		iy := 1 + pedRNG.Intn(city.Blocks-1)
		cx := city.StreetCenter(ix) + pedRNG.Range(-4, 4)
		cy := city.StreetCenter(iy) + pedRNG.Range(-4, 4)
		side := pedRNG.Range(6, 20)
		speed := pedRNG.Range(0.8, 1.8)
		route := NewRouteBuilder(geom.V2(cx, cy), 0).
			DriveTo(geom.V2(cx+side, cy), speed).
			Dwell(pedRNG.Range(1, 5)).
			DriveTo(geom.V2(cx+side, cy+side), speed).
			DriveTo(geom.V2(cx, cy+side), speed).
			Dwell(pedRNG.Range(1, 5)).
			DriveTo(geom.V2(cx, cy), speed).
			Loop().
			Build()
		s.actors = append(s.actors, scriptedActor{
			id: id, kind: KindPedestrian, route: route, phase: pedRNG.Range(0, route.Duration()),
		})
		id++
	}
	// Cyclists: longer loops hugging street edges.
	for i := 0; i < cfg.NumCyclists; i++ {
		ix := 1 + cycRNG.Intn(city.Blocks-2)
		iy := 1 + cycRNG.Intn(city.Blocks-2)
		x0 := city.StreetCenter(ix) + 5
		y0 := city.StreetCenter(iy) + 5
		x1 := city.StreetCenter(ix+1) - 5
		y1 := city.StreetCenter(iy+1) - 5
		speed := cycRNG.Range(3.5, 6.5)
		route := NewRouteBuilder(geom.V2(x0, y0), 0).
			DriveTo(geom.V2(x1, y0), speed).
			DriveTo(geom.V2(x1, y1), speed).
			DriveTo(geom.V2(x0, y1), speed).
			DriveTo(geom.V2(x0, y0), speed).
			Loop().
			Build()
		s.actors = append(s.actors, scriptedActor{
			id: id, kind: KindCyclist, route: route, phase: cycRNG.Range(0, route.Duration()),
		})
		id++
	}
	// Pedestrian burst: a crossing platoon clustered around one
	// intersection, alternating between the two street arms. Phases are
	// staggered, not uniform over the loop, so the group arrives at the
	// crossing together — the point is a density spike, not more of the
	// ambient smear.
	if b := cfg.Burst; b.Count > 0 {
		cx := city.StreetCenter(b.Street)
		cy := city.StreetCenter(b.Street)
		half := city.StreetWidth/2 + 2
		for i := 0; i < b.Count; i++ {
			off := burstRNG.Range(-b.Radius, b.Radius)
			speed := burstRNG.Range(1.0, 1.9)
			dwell := burstRNG.Range(0.5, 2.5)
			var from, to geom.Vec2
			if i%2 == 0 {
				// Cross the east-west street: walk north-south.
				from, to = geom.V2(cx+off, cy-half), geom.V2(cx+off, cy+half)
			} else {
				// Cross the north-south street: walk east-west.
				from, to = geom.V2(cx-half, cy+off), geom.V2(cx+half, cy+off)
			}
			route := NewRouteBuilder(from, 0).
				DriveTo(to, speed).
				Dwell(dwell).
				DriveTo(from, speed).
				Dwell(dwell).
				Loop().
				Build()
			phase := float64(i)*b.Stagger + burstRNG.Range(0, 0.5)
			s.actors = append(s.actors, scriptedActor{
				id: id, kind: KindPedestrian, route: route, phase: phase,
			})
			id++
		}
	}
	return s, nil
}

// buildEgoRoute traces a large loop through the city with stops at a
// few intersections, sized to take roughly eight minutes per lap.
func buildEgoRoute(c *City, speed float64) *Route {
	bs := c.BlockSize
	n := float64(c.Blocks)
	p := func(ix, iy float64) geom.Vec2 { return geom.V2(ix*bs, iy*bs) }
	b := NewRouteBuilder(p(1, 1), 0)
	slow := speed * 0.6
	// Outer loop with two mid-city detours; dwell at selected corners.
	b.DriveTo(p(n-1, 1), speed).Dwell(6)
	b.DriveTo(p(n-1, n/2), speed)
	b.DriveTo(p(n/2, n/2), slow).Dwell(8) // mid-city, dense traffic
	b.DriveTo(p(n/2, n-1), speed)
	b.DriveTo(p(1, n-1), speed).Dwell(5)
	b.DriveTo(p(1, n/2), speed)
	b.DriveTo(p(2, n/2), slow)
	b.DriveTo(p(2, 2), speed).Dwell(4)
	b.DriveTo(p(1, 2), slow)
	b.DriveTo(p(1, 1), speed).Dwell(6)
	return b.Loop().Build()
}

// Duration returns one ego lap duration in seconds.
func (s *Scenario) Duration() float64 { return s.EgoRoute.Duration() }

// At returns the full ground-truth snapshot at time t.
func (s *Scenario) At(t float64) Snapshot {
	egoPose, egoSpeed := s.EgoRoute.At(t)
	snap := Snapshot{
		Time: t,
		Ego: ActorState{
			ID: 0, Kind: KindCar, Pose: egoPose, Speed: egoSpeed,
			Dim: KindCar.Dimensions(),
		},
		Actors: make([]ActorState, 0, len(s.actors)),
	}
	for _, a := range s.actors {
		pose, speed := a.route.At(t + a.phase)
		snap.Actors = append(snap.Actors, ActorState{
			ID: a.id, Kind: a.kind, Pose: pose, Speed: speed,
			Dim: a.kind.Dimensions(),
		})
	}
	return snap
}
