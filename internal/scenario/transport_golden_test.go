package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/avstack"
	"repro/internal/autoware"
	"repro/internal/hdmap"
	"repro/internal/sched"
	"repro/internal/testenv"
	"repro/internal/trace"
	"repro/internal/world"
)

// The transport-rewrite regression net: every built-in scenario, run
// with the guard and the supervisor enabled, must render a report whose
// bytes hash to the values recorded from the pre-rewrite (mutex queue,
// per-publish allocation) transport. The transport layer is allowed to
// change its mechanism — rings, pooling, refcounts — but not a single
// observable: stamp order, eviction choice, seq numbering, drop counts,
// quarantine counts, latency samples.
//
// Refresh (only legitimate when simulation semantics intentionally
// change): UPDATE_TRANSPORT_GOLDENS=1 go test -run TestTransportGoldenReports ./internal/scenario/

// transportGoldenDuration covers every builtin horizon (the latest
// fault window closes at 9 s; MinDuration adds 1 s of recovery).
const transportGoldenDuration = 10 * time.Second

const transportGoldenFile = "testdata/transport_goldens.txt"

// runTransportScenario executes one spec's faulted leg with guard and
// supervision forced on, through the same runFaulted the scenario
// entry points use. scen and m are the environment the spec's world
// resolves to (the shared testenv for builtins; a spec-owned build for
// generated scenarios). chains is the lineage log observed on the
// matching baseline run; only sched-enabled specs consult it.
func runTransportScenario(t *testing.T, spec Spec, scen *world.Scenario, m *hdmap.Map, baseline *autoware.Stack, chains *trace.ChainLog) (*Result, *autoware.Stack) {
	t.Helper()
	spec.Guard = true
	spec.Supervise = true
	if min := spec.MinDuration(); transportGoldenDuration < min {
		t.Fatalf("%s: golden duration %v below scenario horizon %v", spec.Name, transportGoldenDuration, min)
	}
	var crit *sched.Criticality
	if spec.Sched != nil {
		crit = sched.Analyze(chains.Chains())
	}
	faulted, inj, err := runFaulted(context.Background(), scen, m, spec, autoware.DetectorSSD300, transportGoldenDuration, crit)
	if err != nil {
		t.Fatal(err)
	}
	return collect(spec, autoware.DetectorSSD300, transportGoldenDuration, baseline, faulted, inj), faulted
}

// checkPoolBalance asserts the pool's reference ledger closes at the
// simulation cutoff: every live reference is either sitting in a
// subscriber queue, held by a callback that was mid-flight when the
// clock stopped (at most one per node), or pinned by the fusion node's
// latest-vision/latest-pose caches (at most two). Anything beyond that
// bound is a leaked envelope; a negative balance means a queue holds a
// message the pool thinks is dead — a double release.
func checkPoolBalance(t *testing.T, name string, stack *autoware.Stack) {
	t.Helper()
	ps := stack.Bus.PoolStats()
	queued := int64(stack.Bus.QueuedMessages())
	held := ps.LiveRefs - queued
	maxHeld := int64(len(stack.Executor.NodeNames())) + 2
	if held < 0 || held > maxHeld {
		t.Errorf("%s: pool out of balance at cutoff: %d live refs, %d queued (held %d, allowed 0..%d); stats %+v",
			name, ps.LiveRefs, queued, held, maxHeld, ps)
	}
}

func TestTransportGoldenReports(t *testing.T) {
	baseline, err := buildStack(testenv.Scenario(), testenv.Map(), autoware.DetectorSSD300, false, 0, world.DefaultScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The chain log is a pure observer: with it attached the baseline
	// report — and therefore every pre-scheduler golden hash — is
	// byte-identical to the pre-lineage recording.
	chains := avstack.AttachChainLog(baseline)
	baseline.Run(transportGoldenDuration)

	var got bytes.Buffer
	for _, spec := range builtins() {
		res, faulted := runTransportScenario(t, spec, testenv.Scenario(), testenv.Map(), baseline, chains)
		var rep bytes.Buffer
		res.WriteReport(&rep)
		fmt.Fprintf(&got, "%-14s sha256=%x\n", spec.Name, sha256.Sum256(rep.Bytes()))
		checkPoolBalance(t, spec.Name, faulted)
	}

	// The pinned search winners run over their own generated worlds:
	// each builds its environment and its own fault-free baseline leg,
	// then hashes the same side-by-side report. Their lines append after
	// the builtins, so pinning a new worst case never perturbs the
	// pre-existing golden prefix.
	generated, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range generated {
		scen, m, err := buildEnv(*spec.World)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		genBaseline, err := buildStack(scen, m, autoware.DetectorSSD300, false, 0, spec.worldConfig())
		if err != nil {
			t.Fatal(err)
		}
		genBaseline.Run(transportGoldenDuration)
		res, faulted := runTransportScenario(t, spec, scen, m, genBaseline, nil)
		var rep bytes.Buffer
		res.WriteReport(&rep)
		fmt.Fprintf(&got, "%-14s sha256=%x\n", spec.Name, sha256.Sum256(rep.Bytes()))
		checkPoolBalance(t, spec.Name, faulted)
		// A pinned search winner earned its place by breaking the
		// end-to-end budget; if the violation ever heals on its own, the
		// pin is stale and the search should be re-run.
		worst := 0.0
		for _, p := range res.Paths {
			if p.Faulted.Count > 0 && p.Faulted.P99 > worst {
				worst = p.Faulted.P99
			}
		}
		if worst <= e2eBudgetMS {
			t.Errorf("%s: pinned violation healed: worst faulted p99 %.2f ms within the %.0f ms budget",
				spec.Name, worst, e2eBudgetMS)
		}
	}

	if os.Getenv("UPDATE_TRANSPORT_GOLDENS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(transportGoldenFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s:\n%s", transportGoldenFile, got.String())
		return
	}

	want, err := os.ReadFile(transportGoldenFile)
	if err != nil {
		t.Fatalf("missing goldens (run with UPDATE_TRANSPORT_GOLDENS=1 to record): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	wantLines := bytes.Split(bytes.TrimRight(want, "\n"), []byte("\n"))
	gotLines := bytes.Split(bytes.TrimRight(got.Bytes(), "\n"), []byte("\n"))
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = string(wantLines[i])
		}
		if i < len(gotLines) {
			g = string(gotLines[i])
		}
		if w != g {
			t.Errorf("report hash diverged from pre-rewrite transport:\n  want %s\n  got  %s", w, g)
		}
	}
}
