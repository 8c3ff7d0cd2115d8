package fleet

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/autoware"
	"repro/internal/scenario"
	"repro/internal/world"
)

// RunResult is what one successful job attempt yields: the rendered
// side-by-side report (the byte-identity unit of the determinism
// contract) and the run's worst faulted-path p99 for aggregation.
type RunResult struct {
	Report []byte
	E2EP99 float64
}

// Runner executes one resolved job attempt. Tests substitute fakes to
// exercise the service's retry/deadline/ladder machinery without
// paying for real simulation.
type Runner interface {
	Run(ctx context.Context, spec scenario.Spec, det autoware.Detector, duration time.Duration) (*RunResult, error)
}

// worldFromParams parses a canonical params line into a world config.
func worldFromParams(line string) (world.ScenarioConfig, error) {
	cfg, err := world.ParseParams(line)
	if err != nil {
		return world.ScenarioConfig{}, fmt.Errorf("%w: params: %v", ErrBadJob, err)
	}
	if err := cfg.Validate(); err != nil {
		return world.ScenarioConfig{}, fmt.Errorf("%w: params: %v", ErrBadJob, err)
	}
	return cfg, nil
}

// scenarioRunner is the production Runner: run the scenario under the
// attempt context and render the report. scenario.Run builds each world
// config's environment once per process, and jobs over one environment
// share their fault-free leg through the scenario layer's memo, so most
// jobs run only their faulted leg. Environment construction is not
// context-aware (it is CPU-bound and cached); only the simulation legs
// observe cancellation.
type scenarioRunner struct{}

func defaultRunner() Runner { return scenarioRunner{} }

func (scenarioRunner) Run(ctx context.Context, spec scenario.Spec, det autoware.Detector, duration time.Duration) (*RunResult, error) {
	res, err := scenario.Run(ctx, spec, det, duration)
	if err != nil {
		return nil, err
	}
	var rep bytes.Buffer
	res.WriteReport(&rep)
	worst := 0.0
	for _, p := range res.Paths {
		if p.Faulted.Count > 0 && p.Faulted.P99 > worst {
			worst = p.Faulted.P99
		}
	}
	return &RunResult{Report: rep.Bytes(), E2EP99: worst}, nil
}
