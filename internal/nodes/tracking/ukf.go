// Package tracking implements imm_ukf_pda_tracker: multi-object
// tracking with an Interacting Multiple Model bank of Unscented Kalman
// Filters (constant velocity / constant turn-rate / random motion) and
// Probabilistic Data Association, following the structure of Autoware's
// tracker and the works it cites.
package tracking

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// State indices of the CTRV state vector [x, y, v, yaw, yawRate].
const (
	ix = iota
	iy
	iv
	iyaw
	iyawd
	stateDim
)

// measDim is the measurement dimension: observed (x, y) position.
const measDim = 2

// Motion model identifiers of the IMM bank.
const (
	ModelCV   = iota // constant velocity (turn rate damped to zero)
	ModelCTRV        // constant turn rate and velocity
	ModelRM          // random motion (velocity damped, high noise)
	numModels
)

// ModelName returns a printable model name.
func ModelName(m int) string {
	switch m {
	case ModelCV:
		return "CV"
	case ModelCTRV:
		return "CTRV"
	case ModelRM:
		return "RM"
	default:
		return fmt.Sprintf("model%d", m)
	}
}

// numSigma is the number of unscented sigma points, 2n+1.
const numSigma = 2*stateDim + 1

// sigmaLambda is the unscented-transform spread: kappa = 2 keeps every
// sigma weight positive for the 5-state filter, which makes the
// reconstructed covariance positive semidefinite by construction (the
// classic lambda = 3 - n choice goes negative for n > 3 and lets the
// covariance drift indefinite over long prediction sequences).
const sigmaLambda = 2

// sigmaWeights are the mean and covariance weights of the sigma points
// (the two coincide for this spread).
var sigmaWeights = func() (w [numSigma]float64) {
	w[0] = sigmaLambda / (sigmaLambda + float64(stateDim))
	for i := 1; i < numSigma; i++ {
		w[i] = 0.5 / (sigmaLambda + float64(stateDim))
	}
	return w
}()

// StateVec is a CTRV state [x, y, v, yaw, yawRate].
type StateVec = [stateDim]float64

// StateMat is a state covariance.
type StateMat = [stateDim][stateDim]float64

// MeasVec is an observed (x, y) position.
type MeasVec = [measDim]float64

// UKF is one unscented Kalman filter over the CTRV state. Its state and
// covariance are fixed-size arrays, so filtering allocates nothing and
// a struct copy is a deep copy.
type UKF struct {
	X StateVec // state
	P StateMat // covariance
	// Process noise spectral densities.
	stdA    float64 // longitudinal acceleration noise
	stdYawd float64 // yaw acceleration noise
	// Model behavior switches.
	model int
	// FPOps accumulates an architectural op estimate for work modeling.
	FPOps float64
}

// NewUKF creates a filter for the given model, initialized at a
// position with a generous prior.
func NewUKF(model int, pos geom.Vec2) *UKF {
	u := &UKF{model: model}
	u.X[ix] = pos.X
	u.X[iy] = pos.Y
	u.P[ix][ix] = 1
	u.P[iy][iy] = 1
	u.P[iv][iv] = 16 // unknown speed up to ~8 m/s within 2 sigma
	u.P[iyaw][iyaw] = math.Pi * math.Pi
	u.P[iyawd][iyawd] = 0.3
	switch model {
	case ModelCV:
		u.stdA, u.stdYawd = 1.5, 0.05
	case ModelCTRV:
		u.stdA, u.stdYawd = 0.8, 0.6
	case ModelRM:
		u.stdA, u.stdYawd = 4.0, 1.5
	default:
		panic("tracking: unknown model")
	}
	return u
}

// sigmaPoints generates the 2n+1 unscented points of (X, P).
func (u *UKF) sigmaPoints() ([numSigma]StateVec, error) {
	var pts [numSigma]StateVec
	var scaled StateMat
	for r := range scaled {
		for c := range scaled[r] {
			scaled[r][c] = u.P[r][c] * (sigmaLambda + float64(stateDim))
		}
	}
	var l StateMat
	var err error
	for jitter := 0.0; jitter < 1; jitter = jitter*10 + 1e-9 {
		p := scaled
		if jitter > 0 {
			for i := range p {
				p[i][i] += jitter
			}
		}
		if l, err = cholesky(&p); err == nil {
			break
		}
	}
	if err != nil {
		return pts, fmt.Errorf("tracking: sigma-point factorization failed: %w", err)
	}
	pts[0] = u.X
	for i := 0; i < stateDim; i++ {
		for r := 0; r < stateDim; r++ {
			pts[1+i][r] = u.X[r] + l[r][i]
			pts[1+stateDim+i][r] = u.X[r] - l[r][i]
		}
	}
	u.FPOps += float64(stateDim*stateDim*stateDim) + float64(4*stateDim*stateDim)
	return pts, nil
}

// propagate advances one sigma point by dt under the filter's model.
func (u *UKF) propagate(p *StateVec, dt float64) StateVec {
	x, y := p[ix], p[iy]
	v, yaw, yawd := p[iv], p[iyaw], p[iyawd]
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
	u.FPOps += 40
	return StateVec{ix: nx, iy: ny, iv: v, iyaw: geom.WrapAngle(yaw + yawd*dt), iyawd: yawd}
}

// Predict advances the filter by dt seconds.
func (u *UKF) Predict(dt float64) error {
	pts, err := u.sigmaPoints()
	if err != nil {
		return err
	}
	for i := range pts {
		pts[i] = u.propagate(&pts[i], dt)
	}
	// Reconstruct mean with angular care on yaw.
	var mean StateVec
	var sinSum, cosSum float64
	for i := range pts {
		p := &pts[i]
		for r := 0; r < stateDim; r++ {
			if r == iyaw {
				continue
			}
			mean[r] += sigmaWeights[i] * p[r]
		}
		sinSum += sigmaWeights[i] * math.Sin(p[iyaw])
		cosSum += sigmaWeights[i] * math.Cos(p[iyaw])
	}
	mean[iyaw] = math.Atan2(sinSum, cosSum)
	// Covariance.
	var cov StateMat
	for i := range pts {
		var d StateVec
		for r := range d {
			d[r] = pts[i][r] - mean[r]
		}
		d[iyaw] = geom.WrapAngle(d[iyaw])
		for r := 0; r < stateDim; r++ {
			for c := 0; c < stateDim; c++ {
				cov[r][c] += sigmaWeights[i] * d[r] * d[c]
			}
		}
	}
	// Additive process noise (discretized).
	dt2 := dt * dt
	qa := u.stdA * u.stdA
	qy := u.stdYawd * u.stdYawd
	cov[ix][ix] += 0.25 * dt2 * dt2 * qa
	cov[iy][iy] += 0.25 * dt2 * dt2 * qa
	cov[iv][iv] += dt2 * qa
	cov[iyaw][iyaw] += 0.25 * dt2 * dt2 * qy
	cov[iyawd][iyawd] += dt2 * qy
	symmetrize(&cov)
	u.X = mean
	u.P = cov
	u.FPOps += float64((2*stateDim + 1) * stateDim * stateDim * 2)
	return nil
}

// MeasurementPrediction holds the predicted measurement distribution
// and the cross covariance needed for the update.
type MeasurementPrediction struct {
	Z    MeasVec                   // predicted measurement mean
	S    [measDim][measDim]float64 // innovation covariance
	SInv [measDim][measDim]float64
	T    [stateDim][measDim]float64 // cross covariance
}

// PredictMeasurement projects the current belief into measurement space
// with measurement noise stdMeas.
func (u *UKF) PredictMeasurement(stdMeas float64) (MeasurementPrediction, error) {
	var mp MeasurementPrediction
	pts, err := u.sigmaPoints()
	if err != nil {
		return mp, err
	}
	for i := range pts {
		mp.Z[0] += sigmaWeights[i] * pts[i][ix]
		mp.Z[1] += sigmaWeights[i] * pts[i][iy]
	}
	for i := range pts {
		dz := MeasVec{pts[i][ix] - mp.Z[0], pts[i][iy] - mp.Z[1]}
		var dx StateVec
		for r := range dx {
			dx[r] = pts[i][r] - u.X[r]
		}
		dx[iyaw] = geom.WrapAngle(dx[iyaw])
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				mp.S[r][c] += sigmaWeights[i] * dz[r] * dz[c]
			}
		}
		for r := 0; r < stateDim; r++ {
			for c := 0; c < measDim; c++ {
				mp.T[r][c] += sigmaWeights[i] * dx[r] * dz[c]
			}
		}
	}
	mp.S[0][0] += stdMeas * stdMeas
	mp.S[1][1] += stdMeas * stdMeas
	if mp.SInv, err = inverse2(mp.S); err != nil {
		return mp, fmt.Errorf("tracking: singular innovation covariance: %w", err)
	}
	u.FPOps += float64((2*stateDim + 1) * (measDim*measDim + stateDim*measDim) * 2)
	return mp, nil
}

// UpdatePDA applies a probabilistic data association update with gated
// measurements zs and their association weights beta (len(zs)+1
// entries, last is the no-detection weight). It returns the combined
// measurement likelihood for IMM model probability updates.
func (u *UKF) UpdatePDA(mp *MeasurementPrediction, zs []MeasVec, beta []float64) float64 {
	if len(beta) != len(zs)+1 {
		panic("tracking: beta length mismatch")
	}
	k := gain(&mp.T, &mp.SInv) // Kalman gain
	// Combined innovation.
	var nu MeasVec
	for i := range zs {
		for r := range nu {
			nu[r] += (zs[i][r] - mp.Z[r]) * beta[i]
		}
	}
	// Spread-of-innovations term for the PDA covariance.
	var spread [measDim][measDim]float64
	for i := range zs {
		d := MeasVec{zs[i][0] - mp.Z[0], zs[i][1] - mp.Z[1]}
		for r := 0; r < measDim; r++ {
			for c := 0; c < measDim; c++ {
				spread[r][c] += beta[i] * d[r] * d[c]
			}
		}
	}
	for r := 0; r < measDim; r++ {
		for c := 0; c < measDim; c++ {
			spread[r][c] += -nu[r] * nu[c]
		}
	}
	kn := gainVec(&k, &nu)
	for r := range u.X {
		u.X[r] += kn[r]
	}
	u.X[iyaw] = geom.WrapAngle(u.X[iyaw])
	b0 := beta[len(beta)-1]
	shrink := sandwich(&k, &mp.S)
	widen := sandwich(&k, &spread)
	for r := range u.P {
		for c := range u.P[r] {
			u.P[r][c] = u.P[r][c] - shrink[r][c]*(1-b0) + widen[r][c]
		}
	}
	symmetrize(&u.P)
	for i := range u.P {
		u.P[i][i] += 1e-9
	}
	u.FPOps += 400

	// Mean gated likelihood (for IMM).
	like := 1e-12
	for i := range zs {
		m := mahalanobis2(MeasVec{zs[i][0] - mp.Z[0], zs[i][1] - mp.Z[1]}, &mp.SInv)
		det := mp.S[0][0]*mp.S[1][1] - mp.S[0][1]*mp.S[1][0]
		if det > 0 {
			like += math.Exp(-0.5*m) / (2 * math.Pi * math.Sqrt(det))
		}
	}
	return like
}

// Pos returns the estimated position.
func (u *UKF) Pos() geom.Vec2 { return geom.V2(u.X[ix], u.X[iy]) }

// Speed returns the estimated scalar speed.
func (u *UKF) Speed() float64 { return u.X[iv] }

// Yaw returns the estimated heading.
func (u *UKF) Yaw() float64 { return u.X[iyaw] }

// YawRate returns the estimated turn rate.
func (u *UKF) YawRate() float64 { return u.X[iyawd] }
