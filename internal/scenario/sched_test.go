package scenario

import (
	"testing"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/testenv"
	"repro/internal/trace"
	"repro/internal/world"
)

// schedTestDuration matches the golden duration: the contention window
// closes at 9 s, leaving a second of recovery.
const schedTestDuration = 10 * time.Second

// TestContentionTunedImprovesP99 is the F1-closure assertion: the
// pinned tuned schedule must beat the plain contention scenario's
// worst-path faulted p99 while keeping the sample population (no
// winning by shedding the traffic).
func TestContentionTunedImprovesP99(t *testing.T) {
	t.Parallel()
	plain, err := ByName(NameContention)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := ByName(NameContentionTuned)
	if err != nil {
		t.Fatal(err)
	}

	run := func(spec Spec) *Result {
		res, err := RunWithEnv(testenv.Scenario(), testenv.Map(), spec, autoware.DetectorSSD300, schedTestDuration)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plainRes, tunedRes := run(plain), run(tuned)

	worst := func(r *Result) (string, float64, int, int) {
		var path string
		var p99 float64
		total := 0
		var count int
		for _, ps := range r.Paths {
			total += ps.Faulted.Count
			if ps.Faulted.Count == 0 {
				continue
			}
			if path == "" || ps.Faulted.P99 > p99 {
				path, p99, count = ps.Path, ps.Faulted.P99, ps.Faulted.Count
			}
		}
		return path, p99, count, total
	}
	plainPath, plainP99, _, plainTotal := worst(plainRes)
	tunedPath, tunedP99, _, tunedTotal := worst(tunedRes)
	t.Logf("plain worst %s p99=%.2fms (%d samples); tuned worst %s p99=%.2fms (%d samples)",
		plainPath, plainP99, plainTotal, tunedPath, tunedP99, tunedTotal)

	if tunedP99 >= plainP99 {
		t.Errorf("tuned schedule did not improve worst-path p99: %.2fms vs %.2fms", tunedP99, plainP99)
	}
	if float64(tunedTotal) < 0.5*float64(plainTotal) {
		t.Errorf("tuned schedule gutted the sample population: %d vs %d", tunedTotal, plainTotal)
	}
}

// TestChainLogCleanLegByteIdentical is the chain log's do-no-harm
// contract, which lets one clean leg serve scheduled and unscheduled
// specs alike: a clean drive records the same latency samples with the
// lineage chain log attached as without it.
func TestChainLogCleanLegByteIdentical(t *testing.T) {
	t.Parallel()
	const duration = 8 * time.Second
	run := func(chains bool) string {
		t.Helper()
		st, err := buildStack(testenv.Scenario(), testenv.Map(), autoware.DetectorSSD300, false, 0, world.DefaultScenarioConfig())
		if err != nil {
			t.Fatal(err)
		}
		var log *trace.ChainLog
		if chains {
			log = avstack.AttachChainLog(st)
		}
		st.Run(duration)
		if chains && len(log.Chains()) == 0 {
			t.Fatal("chain log recorded no chains")
		}
		return st.Recorder.Fingerprint()
	}
	if run(false) != run(true) {
		t.Error("attaching the chain log moved a clean-leg latency sample")
	}
}
