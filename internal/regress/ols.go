// Package regress provides ordinary least squares regression, the engine
// behind the Soft-Modeling baseline (Section 4.4): an offline approach that
// fits power and performance as functions of the assigned resources and
// then configures the machine from predictions alone, with no runtime
// feedback.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Model is a fitted linear model y = Coef . x.
type Model struct {
	Coef []float64
}

// ErrSingular is returned when the normal equations are not solvable, e.g.
// because features are collinear and ridge regularization was disabled.
var ErrSingular = errors.New("regress: singular design matrix")

// Fit solves min ||X w - y||^2 + ridge*||w||^2 by the normal equations with
// Gaussian elimination. Each row of X is one observation's feature vector;
// all rows must have equal length. A small ridge (e.g. 1e-9) keeps nearly
// collinear designs solvable.
func Fit(x [][]float64, y []float64, ridge float64) (Model, error) {
	ms, err := FitEach(x, ridge, y)
	if err != nil {
		return Model{}, err
	}
	return ms[0], nil
}

// FitEach fits one model per target in ys over the same observations x,
// as Fit would fit each, accumulating X'X once for all of them.
func FitEach(x [][]float64, ridge float64, ys ...[]float64) ([]Model, error) {
	for _, y := range ys {
		if len(x) != len(y) {
			return nil, fmt.Errorf("regress: %d observations vs %d targets", len(x), len(y))
		}
	}
	if len(x) == 0 {
		return nil, errors.New("regress: no observations")
	}
	d := len(x[0])
	if d == 0 {
		return nil, errors.New("regress: empty feature vectors")
	}
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if len(x) < d {
		return nil, fmt.Errorf("regress: %d observations cannot determine %d coefficients", len(x), d)
	}
	// Normal equations: (X'X + ridge*I) w = X'y. X'X is symmetric, so
	// accumulate its upper triangle and mirror it: IEEE multiplication
	// commutes and the rows are summed in the same order, so every
	// mirrored entry has the bits of a full accumulation.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	for _, row := range x {
		for i, ri := range row {
			ai := a[i]
			for j := i; j < d; j++ {
				ai[j] += ri * row[j]
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			a[j][i] = a[i][j]
		}
		a[i][i] += ridge
	}
	models := make([]Model, len(ys))
	for m, y := range ys {
		b := make([]float64, d)
		for k, row := range x {
			for i := 0; i < d; i++ {
				b[i] += row[i] * y[k]
			}
		}
		w, err := solve(a, b)
		if err != nil {
			return nil, err
		}
		models[m] = Model{Coef: w}
	}
	return models, nil
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// (a, b).
func solve(a [][]float64, b []float64) ([]float64, error) {
	d := len(a)
	m := make([][]float64, d)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < d; col++ {
		pivot := col
		for r := col + 1; r < d; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			factor := m[r][col] / m[col][col]
			for c := col; c <= d; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		w[i] = m[i][d] / m[i][i]
	}
	return w, nil
}

// Predict evaluates the model at feature vector xrow. It panics on a
// dimension mismatch, which always indicates a programming error.
func (m Model) Predict(xrow []float64) float64 {
	if len(xrow) != len(m.Coef) {
		panic(fmt.Sprintf("regress: predicting with %d features on a %d-coefficient model",
			len(xrow), len(m.Coef)))
	}
	y := 0.0
	for i, v := range xrow {
		y += m.Coef[i] * v
	}
	return y
}

// R2 returns the coefficient of determination of the model on (x, y).
func (m Model) R2(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssTot, ssRes := 0.0, 0.0
	for i, row := range x {
		ssTot += (y[i] - mean) * (y[i] - mean)
		r := y[i] - m.Predict(row)
		ssRes += r * r
	}
	if ssTot == 0 {
		return 1
	}
	return 1 - ssRes/ssTot
}
