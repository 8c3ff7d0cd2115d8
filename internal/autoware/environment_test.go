package autoware

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/hdmap"
	"repro/internal/world"
)

type variant struct {
	name string
	set  func(*world.ScenarioConfig)
}

// TestEnvironmentShares pins what the environment cache keys on: equal
// params lines get one world, lines that differ only in traffic or
// weather get worlds of their own over one HD map, equal to the map
// their own world surveys, and another ego speed or city gets another
// map.
func TestEnvironmentShares(t *testing.T) {
	t.Parallel()
	base := world.DefaultScenarioConfig()
	base.City.Blocks, base.City.BlockSize = 3, 60 // a small city maps fast
	base.City.Seed = 0xE4F1                       // and no other test builds it
	scen, m, err := Environment(base)
	if err != nil {
		t.Fatal(err)
	}
	if s, m2, err := Environment(base); err != nil || s != scen || m2 != m {
		t.Errorf("equal params built a second environment (err %v)", err)
	}

	fog := world.WeatherMenu()[len(world.WeatherMenu())-1]
	if fog.Name != "fog" {
		t.Fatalf("weather menu ends with %q, want fog", fog.Name)
	}
	for _, v := range []variant{
		{"cars", func(c *world.ScenarioConfig) { c.NumCars++ }},
		{"traffic seed", func(c *world.ScenarioConfig) { c.Seed++ }},
		{"lead vehicle", func(c *world.ScenarioConfig) { c.LeadVehicle = true }},
		{"fog", func(c *world.ScenarioConfig) { c.Noise = fog }},
	} {
		cfg := base
		v.set(&cfg)
		s, m2, err := Environment(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if s == scen {
			t.Errorf("%s: shares the base params line's world", v.name)
		}
		if m2 != m {
			t.Errorf("%s: built an HD map of its own", v.name)
		}
		own, err := hdmap.Build(s, hdmap.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if !reflect.DeepEqual(own, m) {
			t.Errorf("%s: the shared HD map differs from the one its world surveys", v.name)
		}
	}

	for _, v := range []variant{
		{"ego speed", func(c *world.ScenarioConfig) { c.EgoSpeed = 10 }},
		{"city", func(c *world.ScenarioConfig) { c.City.Seed++ }},
	} {
		cfg := base
		v.set(&cfg)
		s, m2, err := Environment(cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if s == scen || m2 == m || m2 == nil {
			t.Errorf("%s: shares the base world or HD map", v.name)
		}
	}
}

// TestEnvironmentConcurrentFirstUse: callers that race to a world
// neither cache has seen share one world and one HD map.
func TestEnvironmentConcurrentFirstUse(t *testing.T) {
	t.Parallel()
	cfg := world.DefaultScenarioConfig()
	cfg.City.Blocks, cfg.City.BlockSize = 3, 60
	cfg.City.Seed = 0xC0C0 // a city no other test builds
	type built struct {
		scen *world.Scenario
		m    *hdmap.Map
		err  error
	}
	const callers = 4
	out := make(chan built, callers)
	for i := 0; i < callers; i++ {
		go func() {
			s, m, err := Environment(cfg)
			out <- built{s, m, err}
		}()
	}
	first := <-out
	if first.err != nil || first.scen == nil || first.m == nil {
		t.Fatalf("first caller: %+v", first)
	}
	for i := 1; i < callers; i++ {
		if got := <-out; got != first {
			t.Errorf("concurrent callers got different environments: %+v vs %+v", got, first)
		}
	}
}

// TestEnvironmentRejectsInvalidConfig: a config the world builder
// rejects is an error, from the first call and from the cache after it.
func TestEnvironmentRejectsInvalidConfig(t *testing.T) {
	t.Parallel()
	cfg := world.DefaultScenarioConfig()
	cfg.City.Blocks = 2
	for i := 0; i < 2; i++ {
		s, m, err := Environment(cfg)
		if !errors.Is(err, world.ErrCityTooSmall) || s != nil || m != nil {
			t.Errorf("call %d: got (%p, %p, %v), want an ErrCityTooSmall error", i, s, m, err)
		}
	}
}
