package autoware

import (
	"fmt"
	"sync"

	"repro/internal/hdmap"
	"repro/internal/world"
)

// Environment returns the world a drive parameterization describes and
// the HD map surveyed in it, from a process-wide cache that never
// evicts. Each world is built once per canonical params line
// (world.MarshalParams) and each map once per city and ego speed: the
// mapping sweep reads only the static city and the ego route built from
// those two, so worlds that differ in traffic, bursts or weather share
// one map. Concurrent first callers share one build. Worlds and maps are
// read-only once built, so any number of stacks may drive one at once.
//
// Build stays the one-shot path for a Config's own Map or MapFile.
func Environment(wcfg world.ScenarioConfig) (*world.Scenario, *hdmap.Map, error) {
	scen, err := cached(&worlds, world.MarshalParams(wcfg), func() (*world.Scenario, error) {
		return world.BuildScenario(wcfg)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("autoware: building world: %w", err)
	}
	m, err := cached(&maps, mapKey{wcfg.City, wcfg.EgoSpeed}, func() (*hdmap.Map, error) {
		return hdmap.Build(scen, hdmap.DefaultConfig())
	})
	if err != nil {
		return nil, nil, fmt.Errorf("autoware: building map: %w", err)
	}
	return scen, m, nil
}

// mapKey is every input of an HD map built with hdmap.DefaultConfig.
type mapKey struct {
	city     world.CityConfig
	egoSpeed float64
}

var (
	worlds sync.Map // params line -> *entry[*world.Scenario]
	maps   sync.Map // mapKey -> *entry[*hdmap.Map]
)

// entry is one cached build. A failed build keeps its error.
type entry[T any] struct {
	once sync.Once
	v    T
	err  error
}

// cached returns the build stored under key in c, running build on the
// key's first use.
func cached[K comparable, T any](c *sync.Map, key K, build func() (T, error)) (T, error) {
	v, _ := c.LoadOrStore(key, new(entry[T]))
	e := v.(*entry[T])
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
