package tracking

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/msgs"
	"repro/internal/ros"
)

func det(x, y float64, label msgs.ObjectLabel) msgs.DetectedObject {
	return msgs.DetectedObject{
		Label: label, Score: 0.8,
		Pose: geom.NewPose(x, y, 0, 0),
		Dim:  geom.V3(4.4, 1.8, 1.5),
	}
}

func TestUKFPredictStraightLine(t *testing.T) {
	u := NewUKF(ModelCV, geom.V2(0, 0))
	// Fix a moving state: 10 m/s heading east.
	u.X[iv] = 10
	u.X[iyaw] = 0
	u.P = diagState(0.01)
	if err := u.Predict(1.0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.Pos().X-10) > 0.2 || math.Abs(u.Pos().Y) > 0.2 {
		t.Errorf("CV predict = %v", u.Pos())
	}
}

func TestUKFPredictTurn(t *testing.T) {
	u := NewUKF(ModelCTRV, geom.V2(0, 0))
	u.X[iv] = 10
	u.X[iyawd] = 0.5
	u.P = diagState(0.01)
	if err := u.Predict(1.0); err != nil {
		t.Fatal(err)
	}
	// Turning left: Y must be clearly positive.
	if u.Pos().Y < 1 {
		t.Errorf("CTRV turn predict = %v", u.Pos())
	}
	if math.Abs(u.Yaw()-0.5) > 0.1 {
		t.Errorf("yaw after turn = %v", u.Yaw())
	}
}

func TestUKFConvergesOnStationaryTarget(t *testing.T) {
	u := NewUKF(ModelCV, geom.V2(5, 5))
	z := MeasVec{6, 4}
	for i := 0; i < 20; i++ {
		if err := u.Predict(0.1); err != nil {
			t.Fatal(err)
		}
		mp, err := u.PredictMeasurement(0.3)
		if err != nil {
			t.Fatal(err)
		}
		u.UpdatePDA(&mp, []MeasVec{z}, []float64{0.95, 0.05})
	}
	if u.Pos().Dist(geom.V2(6, 4)) > 0.3 {
		t.Errorf("did not converge: %v", u.Pos())
	}
	// Position variance should have shrunk well under the prior.
	if u.P[ix][ix] > 0.5 {
		t.Errorf("variance did not contract: %v", u.P[ix][ix])
	}
}

func TestIMMPrefersCTRVWhileTurning(t *testing.T) {
	m := NewIMM(geom.V2(0, 0))
	// Simulate a target on a circle: radius 20, angular rate 0.3 rad/s.
	stamp := 0.0
	for i := 0; i < 40; i++ {
		stamp += 0.1
		ang := 0.3 * stamp
		z := MeasVec{20 * math.Sin(ang), 20 * (1 - math.Cos(ang))}
		if err := m.Predict(0.1); err != nil {
			t.Fatal(err)
		}
		err := m.Update(0.3, []MeasVec{z}, func(mp MeasurementPrediction) []float64 {
			return []float64{0.95, 0.05}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Mu[ModelCTRV] < m.Mu[ModelRM] {
		t.Errorf("turning target should not favor RM: mu = %v", m.Mu)
	}
	if m.FPOps() <= 0 {
		t.Error("op accounting missing")
	}
}

func TestTrackerConfirmsAndTracksMovingObject(t *testing.T) {
	tr := New(DefaultConfig())
	// Object moving east at 8 m/s, observed at 10 Hz with small noise.
	rng := mathx.NewRNG(3)
	var confirmed []*Track
	for i := 0; i < 30; i++ {
		ts := time.Duration(i) * 100 * time.Millisecond
		x := 8 * float64(i) * 0.1
		d := det(x+rng.NormScaled(0, 0.1), rng.NormScaled(0, 0.1), msgs.LabelCar)
		confirmed = tr.Step([]msgs.DetectedObject{d}, ts)
	}
	if len(confirmed) != 1 {
		t.Fatalf("confirmed tracks = %d", len(confirmed))
	}
	tk := confirmed[0]
	v := tk.IMM.Velocity()
	if math.Abs(v.X-8) > 1.5 || math.Abs(v.Y) > 1.5 {
		t.Errorf("velocity estimate = %v, want ~(8,0)", v)
	}
	if tk.Label != msgs.LabelCar {
		t.Errorf("label = %s", tk.Label)
	}
}

func TestTrackerKeepsStableIDs(t *testing.T) {
	tr := New(DefaultConfig())
	var firstID int
	for i := 0; i < 20; i++ {
		ts := time.Duration(i) * 100 * time.Millisecond
		confirmed := tr.Step([]msgs.DetectedObject{det(float64(i)*0.5, 0, msgs.LabelCar)}, ts)
		if len(confirmed) > 0 {
			if firstID == 0 {
				firstID = confirmed[0].ID
			} else if confirmed[0].ID != firstID {
				t.Fatalf("track ID changed: %d -> %d", firstID, confirmed[0].ID)
			}
		}
	}
	if firstID == 0 {
		t.Fatal("track never confirmed")
	}
}

func TestTrackerDropsStaleTracks(t *testing.T) {
	tr := New(DefaultConfig())
	for i := 0; i < 5; i++ {
		tr.Step([]msgs.DetectedObject{det(0, 0, msgs.LabelCar)}, time.Duration(i)*100*time.Millisecond)
	}
	if len(tr.Tracks()) != 1 {
		t.Fatalf("tracks = %d", len(tr.Tracks()))
	}
	// Starve it.
	for i := 5; i < 12; i++ {
		tr.Step(nil, time.Duration(i)*100*time.Millisecond)
	}
	if len(tr.Tracks()) != 0 {
		t.Errorf("stale track survived: %d", len(tr.Tracks()))
	}
}

func TestTrackerSeparatesTwoObjects(t *testing.T) {
	tr := New(DefaultConfig())
	var confirmed []*Track
	for i := 0; i < 20; i++ {
		ts := time.Duration(i) * 100 * time.Millisecond
		confirmed = tr.Step([]msgs.DetectedObject{
			det(float64(i)*0.8, 0, msgs.LabelCar),
			det(float64(i)*0.8, 15, msgs.LabelPedestrian),
		}, ts)
	}
	if len(confirmed) != 2 {
		t.Fatalf("confirmed = %d, want 2", len(confirmed))
	}
	if confirmed[0].ID == confirmed[1].ID {
		t.Error("distinct objects share an ID")
	}
}

func TestTrackerProcessPublishesTrackedObjects(t *testing.T) {
	tr := New(DefaultConfig())
	var res ros.Result
	for i := 0; i < 10; i++ {
		res = tr.Process(&ros.Message{
			Header:  ros.Header{Stamp: time.Duration(i) * 100 * time.Millisecond},
			Payload: &msgs.DetectedObjectArray{Objects: []msgs.DetectedObject{det(float64(i), 0, msgs.LabelCar)}},
		}, 0)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Topic != TopicObjects {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	arr := res.Outputs[0].Payload.(*msgs.DetectedObjectArray)
	if len(arr.Objects) != 1 || !arr.Objects[0].Tracked {
		t.Fatalf("tracked objects = %+v", arr.Objects)
	}
	if res.Work.FPOps <= 0 {
		t.Error("work not accounted")
	}
}

func TestPDABetasSumToOne(t *testing.T) {
	tr := New(DefaultConfig())
	u := NewUKF(ModelCTRV, geom.V2(0, 0))
	mp, err := u.PredictMeasurement(0.5)
	if err != nil {
		t.Fatal(err)
	}
	betas := tr.pdaBetas(&mp, []MeasVec{{0, 0}, {0.5, 0}})
	sum := 0.0
	for _, b := range betas {
		if b < 0 {
			t.Fatalf("negative beta: %v", betas)
		}
		sum += b
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("betas sum = %v", sum)
	}
}

func TestModelNames(t *testing.T) {
	if ModelName(ModelCV) != "CV" || ModelName(ModelCTRV) != "CTRV" || ModelName(ModelRM) != "RM" {
		t.Error("model names wrong")
	}
	if ModelName(99) != "model99" {
		t.Error("unknown model name")
	}
}

// diagState returns v times the identity.
func diagState(v float64) StateMat {
	var p StateMat
	for i := range p {
		p[i][i] = v
	}
	return p
}

// TestFilterAllocatesNothing pins the fixed-size filter math: predict,
// measurement prediction and the PDA update run without touching the
// heap, for one UKF and for the IMM bank.
func TestFilterAllocatesNothing(t *testing.T) {
	u := NewUKF(ModelCTRV, geom.V2(3, 4))
	zs := []MeasVec{{3.2, 4.1}, {2.9, 3.8}}
	beta := []float64{0.5, 0.3, 0.2}
	if n := testing.AllocsPerRun(50, func() {
		if err := u.Predict(0.1); err != nil {
			t.Fatal(err)
		}
		mp, err := u.PredictMeasurement(0.45)
		if err != nil {
			t.Fatal(err)
		}
		u.UpdatePDA(&mp, zs, beta)
	}); n != 0 {
		t.Errorf("UKF step allocates %v times", n)
	}
	m := NewIMM(geom.V2(3, 4))
	if n := testing.AllocsPerRun(50, func() {
		if err := m.Predict(0.1); err != nil {
			t.Fatal(err)
		}
		if err := m.Update(0.45, zs, func(MeasurementPrediction) []float64 { return beta }); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("IMM step allocates %v times", n)
	}
}

// BenchmarkTrackerStep measures one tracker frame over a steady scene
// of a dozen moving objects.
func BenchmarkTrackerStep(b *testing.B) {
	tr := New(DefaultConfig())
	objs := make([]msgs.DetectedObject, 12)
	frame := func(i int) {
		for k := range objs {
			objs[k] = det(float64(k*10)+0.8*float64(i)*0.1, float64(k%3)*12, msgs.LabelCar)
		}
		tr.Step(objs, time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		frame(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame(10 + i)
	}
}
