package tracking

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/msgs"
)

// covarianceHealthy checks the UKF covariance invariants: finite,
// symmetric, positive diagonal, and factorizable with at most tiny
// jitter.
func covarianceHealthy(p StateMat) bool {
	for i := range p {
		for j := range p[i] {
			v := p[i][j]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			if math.Abs(p[i][j]-p[j][i]) > 1e-6 {
				return false
			}
		}
		if p[i][i] <= 0 {
			return false
		}
		p[i][i] += 1e-9
	}
	_, err := cholesky(&p)
	return err == nil
}

// TestUKFCovarianceInvariantProperty drives a UKF with random motion
// and random (gated-plausible) measurements and checks the covariance
// never degenerates.
func TestUKFCovarianceInvariantProperty(t *testing.T) {
	rng := mathx.NewRNG(61)
	f := func() bool {
		model := rng.Intn(numModels)
		u := NewUKF(model, geom.V2(rng.Range(-50, 50), rng.Range(-50, 50)))
		pos := u.Pos()
		for step := 0; step < 30; step++ {
			dt := rng.Range(0.02, 0.5)
			if err := u.Predict(dt); err != nil {
				return false
			}
			if !covarianceHealthy(u.P) {
				return false
			}
			// Measurement near the predicted position with noise.
			pos = u.Pos().Add(geom.V2(rng.NormScaled(0, 0.5), rng.NormScaled(0, 0.5)))
			z := MeasVec{pos.X, pos.Y}
			mp, err := u.PredictMeasurement(0.45)
			if err != nil {
				return false
			}
			beta := rng.Range(0.5, 0.99)
			u.UpdatePDA(&mp, []MeasVec{z}, []float64{beta, 1 - beta})
			if !covarianceHealthy(u.P) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIMMProbabilitiesSumToOneProperty checks the IMM's model
// probabilities stay a distribution under random updates.
func TestIMMProbabilitiesSumToOneProperty(t *testing.T) {
	rng := mathx.NewRNG(67)
	f := func() bool {
		m := NewIMM(geom.V2(rng.Range(-20, 20), rng.Range(-20, 20)))
		for step := 0; step < 20; step++ {
			if err := m.Predict(rng.Range(0.05, 0.3)); err != nil {
				return false
			}
			z := MeasVec{m.Pos().X + rng.NormScaled(0, 1), m.Pos().Y + rng.NormScaled(0, 1)}
			err := m.Update(0.45, []MeasVec{z}, func(mp MeasurementPrediction) []float64 {
				return []float64{0.9, 0.1}
			})
			if err != nil {
				return false
			}
			sum := 0.0
			for _, mu := range m.Mu {
				if mu < -1e-12 || math.IsNaN(mu) {
					return false
				}
				sum += mu
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTrackerNeverDuplicatesIDs checks track IDs stay unique through
// random detection streams (spawn, merge, prune).
func TestTrackerNeverDuplicatesIDs(t *testing.T) {
	rng := mathx.NewRNG(71)
	f := func() bool {
		tr := New(DefaultConfig())
		for step := 0; step < 25; step++ {
			n := rng.Intn(6)
			objs := make([]msgs.DetectedObject, 0, n)
			for i := 0; i < n; i++ {
				objs = append(objs, msgs.DetectedObject{
					Label: msgs.LabelCar, Score: 0.8,
					Pose: geom.NewPose(rng.Range(-30, 30), rng.Range(-30, 30), 0, 0),
					Dim:  geom.V3(4.4, 1.8, 1.5),
				})
			}
			tr.Step(objs, time.Duration(step+1)*100*time.Millisecond)
			seen := map[int]bool{}
			for _, track := range tr.Tracks() {
				if seen[track.ID] {
					return false
				}
				seen[track.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
