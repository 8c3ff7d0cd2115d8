package tracking

import (
	"math"

	"repro/internal/geom"
)

// immTransition is the Markov model-switching matrix: rows are source
// models, columns destination. Strong diagonal keeps model identity
// sticky, echoing the tuned matrices of IMM trackers.
var immTransition = [numModels][numModels]float64{
	{0.92, 0.06, 0.02}, // from CV
	{0.06, 0.92, 0.02}, // from CTRV
	{0.10, 0.10, 0.80}, // from RM
}

// IMM is the interacting-multiple-model wrapper around a bank of UKFs
// sharing a common state space.
type IMM struct {
	Filters [numModels]*UKF
	// Mu are the model probabilities.
	Mu [numModels]float64
}

// NewIMM creates the filter bank at a position.
func NewIMM(pos geom.Vec2) *IMM {
	m := &IMM{}
	for i := 0; i < numModels; i++ {
		m.Filters[i] = NewUKF(i, pos)
	}
	m.Mu = [numModels]float64{0.45, 0.45, 0.1}
	return m
}

// mix performs the IMM interaction step: each filter restarts from a
// probability-weighted blend of all filters' states.
func (m *IMM) mix() {
	// Mixing weights w[j][i] = P(was i | now j).
	var cbar [numModels]float64
	for j := 0; j < numModels; j++ {
		for i := 0; i < numModels; i++ {
			cbar[j] += immTransition[i][j] * m.Mu[i]
		}
		if cbar[j] < 1e-12 {
			cbar[j] = 1e-12
		}
	}
	var mixedX [numModels]StateVec
	var mixedP [numModels]StateMat
	for j := 0; j < numModels; j++ {
		x := &mixedX[j]
		var sinSum, cosSum float64
		for i := 0; i < numModels; i++ {
			w := immTransition[i][j] * m.Mu[i] / cbar[j]
			fi := m.Filters[i]
			for r := 0; r < stateDim; r++ {
				if r == iyaw {
					continue
				}
				x[r] += w * fi.X[r]
			}
			sinSum += w * math.Sin(fi.X[iyaw])
			cosSum += w * math.Cos(fi.X[iyaw])
		}
		x[iyaw] = math.Atan2(sinSum, cosSum)
		p := &mixedP[j]
		for i := 0; i < numModels; i++ {
			w := immTransition[i][j] * m.Mu[i] / cbar[j]
			fi := m.Filters[i]
			var d StateVec
			for r := range d {
				d[r] = fi.X[r] - x[r]
			}
			d[iyaw] = geom.WrapAngle(d[iyaw])
			for r := 0; r < stateDim; r++ {
				for c := 0; c < stateDim; c++ {
					p[r][c] += w * (fi.P[r][c] + d[r]*d[c])
				}
			}
		}
		symmetrize(p)
	}
	for j := 0; j < numModels; j++ {
		m.Filters[j].X = mixedX[j]
		m.Filters[j].P = mixedP[j]
	}
}

// Predict runs interaction and per-model prediction.
func (m *IMM) Predict(dt float64) error {
	m.mix()
	for _, f := range m.Filters {
		if err := f.Predict(dt); err != nil {
			return err
		}
	}
	return nil
}

// Update applies the PDA update to each model filter and refreshes the
// model probabilities with the per-model likelihoods.
func (m *IMM) Update(stdMeas float64, zs []MeasVec, betaFor func(mp MeasurementPrediction) []float64) error {
	var likes [numModels]float64
	for j, f := range m.Filters {
		mp, err := f.PredictMeasurement(stdMeas)
		if err != nil {
			return err
		}
		beta := betaFor(mp)
		likes[j] = f.UpdatePDA(&mp, zs, beta)
	}
	// Model probability update.
	var cbar [numModels]float64
	for j := 0; j < numModels; j++ {
		for i := 0; i < numModels; i++ {
			cbar[j] += immTransition[i][j] * m.Mu[i]
		}
	}
	sum := 0.0
	for j := 0; j < numModels; j++ {
		m.Mu[j] = likes[j] * cbar[j]
		sum += m.Mu[j]
	}
	if sum < 1e-18 {
		m.Mu = [numModels]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		return nil
	}
	for j := 0; j < numModels; j++ {
		m.Mu[j] /= sum
	}
	return nil
}

// best returns the most probable model's filter.
func (m *IMM) best() *UKF {
	bi, bv := 0, m.Mu[0]
	for i := 1; i < numModels; i++ {
		if m.Mu[i] > bv {
			bi, bv = i, m.Mu[i]
		}
	}
	return m.Filters[bi]
}

// Pos returns the probability-weighted position estimate.
func (m *IMM) Pos() geom.Vec2 {
	var x, y float64
	for i, f := range m.Filters {
		x += m.Mu[i] * f.X[ix]
		y += m.Mu[i] * f.X[iy]
	}
	return geom.V2(x, y)
}

// Velocity returns the best-model velocity vector.
func (m *IMM) Velocity() geom.Vec2 {
	f := m.best()
	return geom.V2(f.Speed()*math.Cos(f.Yaw()), f.Speed()*math.Sin(f.Yaw()))
}

// Yaw returns the best-model heading.
func (m *IMM) Yaw() float64 { return m.best().Yaw() }

// YawRate returns the best-model turn rate.
func (m *IMM) YawRate() float64 { return m.best().YawRate() }

// FPOps sums the accumulated op estimates across the bank.
func (m *IMM) FPOps() float64 {
	var s float64
	for _, f := range m.Filters {
		s += f.FPOps
	}
	return s
}
