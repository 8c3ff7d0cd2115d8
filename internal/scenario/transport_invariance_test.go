package scenario

import (
	"bytes"
	"testing"

	"repro/internal/testenv"
)

// TestTransportRepeatable pins the determinism contract of the
// zero-copy transport: two runs of the queue-burst scenario (guard and
// supervisor on, faults active), each on a fresh clean-leg memo, must
// produce a bit-exact trace — every node and path latency sample — and
// the same rendered report. The rings live on the single-threaded
// simulation spine, so nothing but the scenario's inputs may reach a
// simulated observable.
func TestTransportRepeatable(t *testing.T) {
	t.Parallel()
	spec, err := ByName(NameQueueBurst)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		report      string
		fingerprint string
	}
	run := func() outcome {
		res, faulted := runTransportScenario(t, new(cleanMemo), spec, testenv.Scenario(), testenv.Map())
		var rep bytes.Buffer
		res.WriteReport(&rep)
		return outcome{report: rep.String(), fingerprint: faulted.Recorder.Fingerprint()}
	}

	a, b := run(), run()
	if a.fingerprint != b.fingerprint {
		t.Error("latency fingerprint differs between two runs")
	}
	if a.report != b.report {
		t.Error("rendered report differs between two runs")
	}
}

// TestSchedRepeatable extends the determinism contract to the deadline
// scheduler: two runs of the contention-tuned scenario — EDF pick,
// criticality tie-breaks, deadline shedding and the admission cap all
// active — each on a fresh clean-leg memo, so the clean leg whose
// chains set the priorities reruns too, must produce a bit-exact
// latency fingerprint. The scheduler reads only virtual-time state, so
// a scheduled run may differ from FIFO but never from itself.
func TestSchedRepeatable(t *testing.T) {
	t.Parallel()
	spec, err := ByName(NameContentionTuned)
	if err != nil {
		t.Fatal(err)
	}

	run := func() string {
		_, faulted := runTransportScenario(t, new(cleanMemo), spec, testenv.Scenario(), testenv.Map())
		return faulted.Recorder.Fingerprint()
	}

	if run() != run() {
		t.Error("scheduled fingerprint differs between two runs")
	}
}
