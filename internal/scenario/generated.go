package scenario

import (
	"fmt"
	"sort"

	"embed"

	"repro/internal/search"
)

// Generated chaos scenarios are adversarial-search winners pinned as
// regressions: when `characterize -exp search` elects a worst case
// whose latency breaks the end-to-end budget, its candidate text
// (world params line + fault schedule, see search.MarshalCandidate)
// is committed under testdata/gen_*.scenario and becomes a named
// scenario like the builtins — runnable via -faults, hashed by the
// transport golden net, and checked for worker invariance. The stack
// they measure is the hardened one the search measured: guard and
// supervision forced on.

//go:embed testdata/gen_*.scenario
var generatedFS embed.FS

// Generated returns the pinned search-winner scenarios, sorted by file
// name. A spec that fails to parse is reported as an error naming the
// file — never a panic — so a long-running service (the fleet server
// resolves scenarios per job) degrades a bad pin into a job failure
// instead of a crash. Only the embedded filesystem itself failing to
// read panics: go:embed content is part of the build, and a build that
// cannot read its own sections is unrecoverable.
func Generated() ([]Spec, error) {
	entries, err := generatedFS.ReadDir("testdata")
	if err != nil {
		panic(fmt.Sprintf("scenario: reading embedded generated scenarios: %v", err))
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var specs []Spec
	for _, e := range entries {
		data, err := generatedFS.ReadFile("testdata/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("scenario: reading %s: %v", e.Name(), err))
		}
		c, err := search.ParseCandidate(string(data))
		if err != nil {
			return nil, fmt.Errorf("scenario: parsing %s: %w", e.Name(), err)
		}
		spec := Spec{
			Name: c.Name,
			Description: fmt.Sprintf("search-pinned worst case (%s): generated world + %d-fault schedule "+
				"elected by the adversarial latency search for breaking the end-to-end budget", e.Name(), len(c.Faults)),
			Seed:      c.FaultSeed,
			Faults:    c.Faults,
			World:     &c.World,
			Guard:     true,
			Supervise: true,
		}
		if err := spec.World.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %s: pinned world invalid: %w", e.Name(), err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
