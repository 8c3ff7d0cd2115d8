package tracking

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// This file keeps the heap-matrix filter the fixed-size one replaced,
// verbatim but for names, as a reference: the two must agree bit for
// bit on every state, covariance, likelihood and op count.

type refUKF struct {
	X, P          *mathx.Mat
	stdA, stdYawd float64
	model         int
	lambda        float64
	wm, wc        []float64
	FPOps         float64
}

func newRefUKF(u *UKF) *refUKF {
	r := &refUKF{
		X: mathx.NewMat(stateDim, 1), P: mathx.NewMat(stateDim, stateDim),
		stdA: u.stdA, stdYawd: u.stdYawd, model: u.model, lambda: 2,
		wm: make([]float64, numSigma), wc: make([]float64, numSigma),
	}
	r.wm[0] = r.lambda / (r.lambda + float64(stateDim))
	r.wc[0] = r.wm[0]
	for i := 1; i < numSigma; i++ {
		r.wm[i] = 0.5 / (r.lambda + float64(stateDim))
		r.wc[i] = r.wm[i]
	}
	r.load(u)
	return r
}

// load copies u's state and covariance into r.
func (r *refUKF) load(u *UKF) {
	for i := 0; i < stateDim; i++ {
		r.X.Set(i, 0, u.X[i])
		for j := 0; j < stateDim; j++ {
			r.P.Set(i, j, u.P[i][j])
		}
	}
}

// sigmaPoints generates the 2n+1 unscented points of (X, P).
func (u *refUKF) sigmaPoints() ([]*mathx.Mat, error) {
	scaled := u.P.Scale(u.lambda + float64(stateDim))
	var l *mathx.Mat
	var err error
	for jitter := 0.0; jitter < 1; jitter = jitter*10 + 1e-9 {
		p := scaled.Clone()
		if jitter > 0 {
			p.AddDiag(jitter)
		}
		l, err = p.Cholesky()
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("tracking: sigma-point factorization failed: %w", err)
	}
	pts := make([]*mathx.Mat, 2*stateDim+1)
	pts[0] = u.X.Clone()
	for i := 0; i < stateDim; i++ {
		col := mathx.NewMat(stateDim, 1)
		for r := 0; r < stateDim; r++ {
			col.Set(r, 0, l.At(r, i))
		}
		pts[1+i] = u.X.Add(col)
		pts[1+stateDim+i] = u.X.Sub(col)
	}
	u.FPOps += float64(stateDim*stateDim*stateDim) + float64(4*stateDim*stateDim)
	return pts, nil
}

// propagate advances one sigma point by dt under the filter's model.
func (u *refUKF) propagate(p *mathx.Mat, dt float64) *mathx.Mat {
	x, y := p.At(ix, 0), p.At(iy, 0)
	v, yaw, yawd := p.At(iv, 0), p.At(iyaw, 0), p.At(iyawd, 0)
	switch u.model {
	case ModelCV:
		yawd = 0
	case ModelRM:
		v *= math.Exp(-dt) // velocity decays; motion is noise-driven
	}
	var nx, ny float64
	if math.Abs(yawd) > 1e-4 {
		nx = x + v/yawd*(math.Sin(yaw+yawd*dt)-math.Sin(yaw))
		ny = y + v/yawd*(-math.Cos(yaw+yawd*dt)+math.Cos(yaw))
	} else {
		nx = x + v*dt*math.Cos(yaw)
		ny = y + v*dt*math.Sin(yaw)
	}
	out := mathx.NewMat(stateDim, 1)
	out.Set(ix, 0, nx)
	out.Set(iy, 0, ny)
	out.Set(iv, 0, v)
	out.Set(iyaw, 0, geom.WrapAngle(yaw+yawd*dt))
	out.Set(iyawd, 0, yawd)
	u.FPOps += 40
	return out
}

// Predict advances the filter by dt seconds.
func (u *refUKF) Predict(dt float64) error {
	pts, err := u.sigmaPoints()
	if err != nil {
		return err
	}
	for i, p := range pts {
		pts[i] = u.propagate(p, dt)
	}
	// Reconstruct mean with angular care on yaw.
	mean := mathx.NewMat(stateDim, 1)
	var sinSum, cosSum float64
	for i, p := range pts {
		for r := 0; r < stateDim; r++ {
			if r == iyaw {
				continue
			}
			mean.AddAt(r, 0, u.wm[i]*p.At(r, 0))
		}
		sinSum += u.wm[i] * math.Sin(p.At(iyaw, 0))
		cosSum += u.wm[i] * math.Cos(p.At(iyaw, 0))
	}
	mean.Set(iyaw, 0, math.Atan2(sinSum, cosSum))
	// Covariance.
	cov := mathx.NewMat(stateDim, stateDim)
	for i, p := range pts {
		d := p.Sub(mean)
		d.Set(iyaw, 0, geom.WrapAngle(d.At(iyaw, 0)))
		for r := 0; r < stateDim; r++ {
			for c := 0; c < stateDim; c++ {
				cov.AddAt(r, c, u.wc[i]*d.At(r, 0)*d.At(c, 0))
			}
		}
	}
	// Additive process noise (discretized).
	dt2 := dt * dt
	qa := u.stdA * u.stdA
	qy := u.stdYawd * u.stdYawd
	cov.AddAt(ix, ix, 0.25*dt2*dt2*qa)
	cov.AddAt(iy, iy, 0.25*dt2*dt2*qa)
	cov.AddAt(iv, iv, dt2*qa)
	cov.AddAt(iyaw, iyaw, 0.25*dt2*dt2*qy)
	cov.AddAt(iyawd, iyawd, dt2*qy)
	cov.Symmetrize()
	u.X = mean
	u.P = cov
	u.FPOps += float64((2*stateDim + 1) * stateDim * stateDim * 2)
	return nil
}

type refPrediction struct {
	Z    *mathx.Mat // predicted measurement mean (2x1)
	S    *mathx.Mat // innovation covariance (2x2)
	SInv *mathx.Mat
	T    *mathx.Mat // cross covariance (5x2)
}

// PredictMeasurement projects the current belief into measurement space
// with measurement noise stdMeas.
func (u *refUKF) PredictMeasurement(stdMeas float64) (*refPrediction, error) {
	pts, err := u.sigmaPoints()
	if err != nil {
		return nil, err
	}
	zPts := make([]*mathx.Mat, len(pts))
	zMean := mathx.NewMat(measDim, 1)
	for i, p := range pts {
		z := mathx.NewMat(measDim, 1)
		z.Set(0, 0, p.At(ix, 0))
		z.Set(1, 0, p.At(iy, 0))
		zPts[i] = z
		zMean.AddAt(0, 0, u.wm[i]*z.At(0, 0))
		zMean.AddAt(1, 0, u.wm[i]*z.At(1, 0))
	}
	s := mathx.NewMat(measDim, measDim)
	t := mathx.NewMat(stateDim, measDim)
	for i, p := range pts {
		dz := zPts[i].Sub(zMean)
		dx := p.Sub(u.X)
		dx.Set(iyaw, 0, geom.WrapAngle(dx.At(iyaw, 0)))
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				s.AddAt(r, c, u.wc[i]*dz.At(r, 0)*dz.At(c, 0))
			}
		}
		for r := 0; r < stateDim; r++ {
			for c := 0; c < measDim; c++ {
				t.AddAt(r, c, u.wc[i]*dx.At(r, 0)*dz.At(c, 0))
			}
		}
	}
	s.AddAt(0, 0, stdMeas*stdMeas)
	s.AddAt(1, 1, stdMeas*stdMeas)
	sInv, err := s.Inverse()
	if err != nil {
		return nil, fmt.Errorf("tracking: singular innovation covariance: %w", err)
	}
	u.FPOps += float64((2*stateDim + 1) * (measDim*measDim + stateDim*measDim) * 2)
	return &refPrediction{Z: zMean, S: s, SInv: sInv, T: t}, nil
}

// UpdatePDA applies a probabilistic data association update with gated
// measurements zs (2x1 each) and their association weights beta
// (len(zs)+1 entries, last is the no-detection weight). It returns the
// combined measurement likelihood for IMM model probability updates.
func (u *refUKF) UpdatePDA(mp *refPrediction, zs []*mathx.Mat, beta []float64) float64 {
	if len(beta) != len(zs)+1 {
		panic("tracking: beta length mismatch")
	}
	k := mp.T.Mul(mp.SInv) // Kalman gain (5x2)
	// Combined innovation.
	nu := mathx.NewMat(measDim, 1)
	for i, z := range zs {
		nu = nu.Add(z.Sub(mp.Z).Scale(beta[i]))
	}
	// Spread-of-innovations term for the PDA covariance.
	spread := mathx.NewMat(measDim, measDim)
	for i, z := range zs {
		d := z.Sub(mp.Z)
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				spread.AddAt(r, c, beta[i]*d.At(r, 0)*d.At(c, 0))
			}
		}
	}
	for r := 0; r < measDim; r++ {
		for c := 0; c < measDim; c++ {
			spread.AddAt(r, c, -nu.At(r, 0)*nu.At(c, 0))
		}
	}
	u.X = u.X.Add(k.Mul(nu))
	u.X.Set(iyaw, 0, geom.WrapAngle(u.X.At(iyaw, 0)))
	b0 := beta[len(beta)-1]
	pc := u.P.Sub(k.Mul(mp.S).Mul(k.T()).Scale(1 - b0))
	pc = pc.Add(k.Mul(spread).Mul(k.T()))
	pc.Symmetrize()
	pc.AddDiag(1e-9)
	u.P = pc
	u.FPOps += 400

	// Mean gated likelihood (for IMM).
	like := 1e-12
	for _, z := range zs {
		d := z.Sub(mp.Z)
		m := d.T().Mul(mp.SInv).Mul(d).At(0, 0)
		det := mp.S.At(0, 0)*mp.S.At(1, 1) - mp.S.At(0, 1)*mp.S.At(1, 0)
		if det > 0 {
			like += math.Exp(-0.5*m) / (2 * math.Pi * math.Sqrt(det))
		}
	}
	return like
}

// mix performs the IMM interaction step: each filter restarts from a
// probability-weighted blend of all filters' states.
func refMix(m *[numModels]*refUKF, mu [numModels]float64) {
	// Mixing weights w[j][i] = P(was i | now j).
	var cbar [numModels]float64
	for j := 0; j < numModels; j++ {
		for i := 0; i < numModels; i++ {
			cbar[j] += immTransition[i][j] * mu[i]
		}
		if cbar[j] < 1e-12 {
			cbar[j] = 1e-12
		}
	}
	var mixedX [numModels]*mathx.Mat
	var mixedP [numModels]*mathx.Mat
	for j := 0; j < numModels; j++ {
		x := mathx.NewMat(stateDim, 1)
		var sinSum, cosSum float64
		for i := 0; i < numModels; i++ {
			w := immTransition[i][j] * mu[i] / cbar[j]
			fi := m[i]
			for r := 0; r < stateDim; r++ {
				if r == iyaw {
					continue
				}
				x.AddAt(r, 0, w*fi.X.At(r, 0))
			}
			sinSum += w * math.Sin(fi.X.At(iyaw, 0))
			cosSum += w * math.Cos(fi.X.At(iyaw, 0))
		}
		x.Set(iyaw, 0, math.Atan2(sinSum, cosSum))
		p := mathx.NewMat(stateDim, stateDim)
		for i := 0; i < numModels; i++ {
			w := immTransition[i][j] * mu[i] / cbar[j]
			fi := m[i]
			d := fi.X.Sub(x)
			d.Set(iyaw, 0, geom.WrapAngle(d.At(iyaw, 0)))
			for r := 0; r < stateDim; r++ {
				for c := 0; c < stateDim; c++ {
					p.AddAt(r, c, w*(fi.P.At(r, c)+d.At(r, 0)*d.At(c, 0)))
				}
			}
		}
		p.Symmetrize()
		mixedX[j], mixedP[j] = x, p
	}
	for j := 0; j < numModels; j++ {
		m[j].X = mixedX[j]
		m[j].P = mixedP[j]
	}
}

// sameFilter fails the test unless u and r hold bit-identical state,
// covariance and op counts.
func sameFilter(t *testing.T, step int, u *UKF, r *refUKF) {
	t.Helper()
	for i := 0; i < stateDim; i++ {
		if math.Float64bits(u.X[i]) != math.Float64bits(r.X.At(i, 0)) {
			t.Fatalf("step %d: X[%d] = %v, reference %v", step, i, u.X[i], r.X.At(i, 0))
		}
		for j := 0; j < stateDim; j++ {
			if math.Float64bits(u.P[i][j]) != math.Float64bits(r.P.At(i, j)) {
				t.Fatalf("step %d: P[%d][%d] = %v, reference %v", step, i, j, u.P[i][j], r.P.At(i, j))
			}
		}
	}
	if u.FPOps != r.FPOps {
		t.Fatalf("step %d: FPOps = %v, reference %v", step, u.FPOps, r.FPOps)
	}
}

// TestFixedSizeFilterMatchesReference drives the IMM bank and the
// reference filters through the same random mix / predict / PDA-update
// sequence, with zero, one and several gated measurements, and compares
// every filter bit for bit after each step.
func TestFixedSizeFilterMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(83)
	for trial := 0; trial < 40; trial++ {
		m := NewIMM(geom.V2(rng.Range(-50, 50), rng.Range(-50, 50)))
		var refs [numModels]*refUKF
		for j, f := range m.Filters {
			refs[j] = newRefUKF(f)
		}
		for step := 0; step < 40; step++ {
			refMix(&refs, m.Mu)
			m.mix()
			dt := rng.Range(0.02, 0.4)
			for j, f := range m.Filters {
				errA, errB := f.Predict(dt), refs[j].Predict(dt)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("step %d: predict errors differ: %v vs %v", step, errA, errB)
				}
				sameFilter(t, step, f, refs[j])
			}
			pos := m.Pos()
			zs := make([]MeasVec, rng.Intn(4))
			refZs := make([]*mathx.Mat, len(zs))
			for i := range zs {
				zs[i] = MeasVec{pos.X + rng.NormScaled(0, 1), pos.Y + rng.NormScaled(0, 1)}
				if i == 1 {
					zs[i][1] = 0 // exercise the zero-skipping products
				}
				refZs[i] = mathx.MatFromRows([]float64{zs[i][0]}, []float64{zs[i][1]})
			}
			beta := make([]float64, len(zs)+1)
			rest := 1.0
			for i := range zs {
				beta[i] = rest * rng.Range(0.2, 0.8)
				rest -= beta[i]
			}
			beta[len(zs)] = rest
			for j, f := range m.Filters {
				mp, errA := f.PredictMeasurement(0.45)
				rp, errB := refs[j].PredictMeasurement(0.45)
				if errA != nil || errB != nil {
					t.Fatalf("step %d: measurement prediction failed: %v / %v", step, errA, errB)
				}
				if mp.SInv[0][1] != rp.SInv.At(0, 1) || mp.T[iyaw][1] != rp.T.At(iyaw, 1) {
					t.Fatalf("step %d: measurement prediction differs", step)
				}
				likeA := f.UpdatePDA(&mp, zs, beta)
				likeB := refs[j].UpdatePDA(rp, refZs, beta)
				if math.Float64bits(likeA) != math.Float64bits(likeB) {
					t.Fatalf("step %d: likelihood %v, reference %v", step, likeA, likeB)
				}
				sameFilter(t, step, f, refs[j])
			}
			mu := [numModels]float64{rng.Range(0.1, 1), rng.Range(0.1, 1), rng.Range(0.1, 1)}
			sum := mu[0] + mu[1] + mu[2]
			m.Mu = [numModels]float64{mu[0] / sum, mu[1] / sum, mu[2] / sum}
		}
	}
}
