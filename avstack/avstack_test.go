package avstack

import (
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/autoware"
	"repro/internal/platform"
	"repro/internal/sched"
)

// One shared full system per test binary; construction synthesizes the
// map and is the dominant cost.
var shared *System

func system(t *testing.T) *System {
	t.Helper()
	if shared == nil {
		s, err := NewSystem(DetectorSSD300)
		if err != nil {
			t.Fatal(err)
		}
		s.Run(15 * time.Second)
		shared = s
	}
	return shared
}

func TestSystemEndToEndSurface(t *testing.T) {
	s := system(t)
	if len(s.Nodes()) < 10 {
		t.Errorf("nodes = %v", s.Nodes())
	}
	if s.NodeLatency("ndt_matching").Count == 0 {
		t.Error("no ndt samples")
	}
	if len(s.NodeSamples("ndt_matching")) == 0 {
		t.Error("no raw samples")
	}
	if len(s.Paths()) != 4 {
		t.Errorf("paths = %v", s.Paths())
	}
	worst, e2e := s.EndToEnd()
	if worst == "" || e2e.Count == 0 {
		t.Error("no end-to-end measurement")
	}
	if cpu, gpu := s.MeanPower(); cpu <= 0 || gpu <= 0 {
		t.Errorf("power = %v, %v", cpu, gpu)
	}
	if cpu, gpu := s.MeanUtilization(); cpu <= 0 || cpu > 1 || gpu < 0 || gpu > 1 {
		t.Errorf("utilization = %v, %v", cpu, gpu)
	}
	if len(s.Utilization()) < 5 {
		t.Error("utilization report too short")
	}
	if s.Now() < 15*time.Second {
		t.Errorf("now = %v", s.Now())
	}
	if share := s.CPUShare("vision_detection"); share <= 0 || share >= 1 {
		t.Errorf("vision cpu share = %v", share)
	}
}

func TestSystemPerceptionState(t *testing.T) {
	s := system(t)
	pose, ok := s.Pose()
	if !ok {
		t.Fatal("not localized after 15 s")
	}
	truth := s.GroundTruthPose()
	if pose.XY().Dist(truth.XY()) > 5 {
		t.Errorf("localization error %.1f m", pose.XY().Dist(truth.XY()))
	}
	if len(s.TrackedObjects()) == 0 {
		t.Error("no tracked objects")
	}
}

func TestAttachLayersZeroAndInvalid(t *testing.T) {
	s := system(t)
	if inj, err := s.AttachLayers(Layers{}); inj != nil || err != nil {
		t.Errorf("zero Layers = %v, %v; want no injector and no error", inj, err)
	}
	bad := Layers{Watch: []WatchPolicy{{Node: "n", Timeout: time.Second}}}
	if _, err := s.AttachLayers(bad); err == nil {
		t.Error("a watch policy without a topic was accepted")
	}
}

// TestAttachLayersShedBudget pins the shed budget the executor runs
// with: a positive scheduler knob replaces Layers.ShedBudget, and
// either alone is installed as set.
func TestAttachLayersShedBudget(t *testing.T) {
	const layers, knob = 100 * time.Millisecond, 80 * time.Millisecond
	for _, tc := range []struct {
		name string
		l    Layers
		want time.Duration
	}{
		{"neither", Layers{}, 0},
		{"layers only", Layers{ShedBudget: layers}, layers},
		{"sched only", Layers{Sched: &sched.Knobs{ShedBudget: knob}}, knob},
		{"both, the knob wins", Layers{ShedBudget: layers, Sched: &sched.Knobs{ShedBudget: knob}}, knob},
		{"sched without a budget", Layers{ShedBudget: layers, Sched: &sched.Knobs{}}, layers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &autoware.Stack{Executor: &platform.Executor{}}
			if _, err := AttachLayers(st, tc.l); err != nil {
				t.Fatal(err)
			}
			if got := st.Executor.ShedBudget; got != tc.want {
				t.Errorf("executor ShedBudget = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := NewSystemWithOptions(DetectorSSD300, Options{VisionOnly: true, WithPlanning: true}); err == nil {
		t.Error("conflicting options should fail")
	}
	if _, err := NewSystem(Detector("bogus")); err == nil {
		t.Error("bogus detector should fail")
	}
}

// TestCharacterizeRejectsBadDuration checks that a non-positive drive
// fails before the environment, which takes seconds, is built.
func TestCharacterizeRejectsBadDuration(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		start := time.Now()
		if err := Characterize(io.Discard, d); err == nil {
			t.Errorf("duration %v should fail", d)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("duration %v failed after %v; it must fail before building anything", d, elapsed)
		}
	}
}

func TestCharacterizeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("characterize runs several full-system simulations")
	}
	var sb strings.Builder
	if err := Characterize(&sb, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Fig. 5", "Table III", "Fig. 6", "Table V", "Table VI", "Table VII", "Fig. 7", "Fig. 8", "Findings"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in characterization output", want)
		}
	}
}
