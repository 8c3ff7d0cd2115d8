// Package testenv caches the expensive shared fixtures (scenario, HD
// map, sensors) used across the repository's test packages, so each is
// built once per test binary.
package testenv

import (
	"sync"

	"repro/internal/hdmap"
	"repro/internal/sensor"
	"repro/internal/world"
)

var (
	once  sync.Once
	scen  *world.Scenario
	sweep *hdmap.Sweep
	hmap  *hdmap.Map
)

// Scenario returns the shared default scenario.
func Scenario() *world.Scenario {
	build()
	return scen
}

// Map returns the shared HD map, built as autoware.Environment builds
// the default world's.
func Map() *hdmap.Map {
	build()
	return hmap
}

// Sweep returns the mapping sweep the shared HD map was built from,
// which is what a map file stores.
func Sweep() *hdmap.Sweep {
	build()
	return sweep
}

func build() {
	once.Do(func() {
		scen = world.NewScenario(world.DefaultScenarioConfig())
		sw, err := hdmap.SweepRoute(scen, hdmap.DefaultConfig())
		if err != nil {
			panic(err)
		}
		sweep, hmap = sw, sw.Map()
	})
}

// LiDAR returns a fresh default scanner bound to the shared city.
func LiDAR() *sensor.LiDAR {
	build()
	return sensor.NewLiDAR(sensor.DefaultLiDARConfig(), scen.City)
}

// Camera returns a fresh default camera bound to the shared city.
func Camera() *sensor.Camera {
	build()
	return sensor.NewCamera(sensor.DefaultCameraConfig(), scen.City)
}
