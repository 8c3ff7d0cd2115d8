package tracking

import (
	"fmt"
	"math"
)

// Fixed-size linear algebra for the filters. Each routine performs the
// same floating-point operations in the same order as the general
// mathx.Mat versions it replaces, including skipping zero left factors
// in products, so filter outputs are bit-identical to the heap-matrix
// implementation while allocating nothing.

// cholesky returns the lower-triangular L with L*Lᵀ = m, or an error
// when m is not positive definite.
func cholesky(m *StateMat) (StateMat, error) {
	var l StateMat
	for i := 0; i < stateDim; i++ {
		for j := 0; j <= i; j++ {
			sum := m[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return l, fmt.Errorf("matrix not positive definite at pivot %d (%g)", i, sum)
				}
				l[i][j] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, nil
}

// inverse2 inverts a 2x2 matrix by Gauss-Jordan elimination with
// partial pivoting.
func inverse2(m [measDim][measDim]float64) ([measDim][measDim]float64, error) {
	a := m
	inv := [measDim][measDim]float64{{1, 0}, {0, 1}}
	for col := 0; col < measDim; col++ {
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < measDim; r++ {
			if v := math.Abs(a[r][col]); v > maxAbs {
				maxAbs = v
				pivot = r
			}
		}
		if maxAbs < 1e-14 {
			return inv, fmt.Errorf("singular matrix at column %d", col)
		}
		if pivot != col {
			a[pivot], a[col] = a[col], a[pivot]
			inv[pivot], inv[col] = inv[col], inv[pivot]
		}
		p := a[col][col]
		for j := 0; j < measDim; j++ {
			a[col][j] = a[col][j] / p
			inv[col][j] = inv[col][j] / p
		}
		for r := 0; r < measDim; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < measDim; j++ {
				a[r][j] += -f * a[col][j]
				inv[r][j] += -f * inv[col][j]
			}
		}
	}
	return inv, nil
}

// gain returns t * sInv, the Kalman gain.
func gain(t *[stateDim][measDim]float64, sInv *[measDim][measDim]float64) [stateDim][measDim]float64 {
	var k [stateDim][measDim]float64
	for i := 0; i < stateDim; i++ {
		for j := 0; j < measDim; j++ {
			a := t[i][j]
			if a == 0 {
				continue
			}
			for c := 0; c < measDim; c++ {
				k[i][c] += a * sInv[j][c]
			}
		}
	}
	return k
}

// gainVec returns k * v.
func gainVec(k *[stateDim][measDim]float64, v *MeasVec) StateVec {
	var out StateVec
	for i := 0; i < stateDim; i++ {
		for j := 0; j < measDim; j++ {
			a := k[i][j]
			if a == 0 {
				continue
			}
			out[i] += a * v[j]
		}
	}
	return out
}

// sandwich returns (k * a) * kᵀ.
func sandwich(k *[stateDim][measDim]float64, a *[measDim][measDim]float64) StateMat {
	ka := gain(k, a)
	var out StateMat
	for i := 0; i < stateDim; i++ {
		for j := 0; j < measDim; j++ {
			f := ka[i][j]
			if f == 0 {
				continue
			}
			for c := 0; c < stateDim; c++ {
				out[i][c] += f * k[c][j]
			}
		}
	}
	return out
}

// mahalanobis2 returns dᵀ * sInv * d.
func mahalanobis2(d MeasVec, sInv *[measDim][measDim]float64) float64 {
	var row MeasVec
	for j := 0; j < measDim; j++ {
		a := d[j]
		if a == 0 {
			continue
		}
		for c := 0; c < measDim; c++ {
			row[c] += a * sInv[j][c]
		}
	}
	var m float64
	for j := 0; j < measDim; j++ {
		if row[j] == 0 {
			continue
		}
		m += row[j] * d[j]
	}
	return m
}

// symmetrize averages m with its transpose in place.
func symmetrize(m *StateMat) {
	for i := 0; i < stateDim; i++ {
		for j := i + 1; j < stateDim; j++ {
			v := (m[i][j] + m[j][i]) / 2
			m[i][j] = v
			m[j][i] = v
		}
	}
}
