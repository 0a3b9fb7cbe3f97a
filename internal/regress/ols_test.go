package regress

import (
	"math"
	"testing"
	"testing/quick"

	"pupil/internal/sim"
)

func TestFitExactLinear(t *testing.T) {
	// y = 2 + 3a - b
	x := [][]float64{
		{1, 0, 0}, {1, 1, 0}, {1, 0, 1}, {1, 2, 3}, {1, 5, 1},
	}
	y := []float64{2, 5, 1, 5, 16}
	m, err := Fit(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 1e-9 {
			t.Errorf("coef[%d] = %g, want %g", i, m.Coef[i], w)
		}
	}
	if r2 := m.R2(x, y); math.Abs(r2-1) > 1e-12 {
		t.Errorf("R2 = %g, want 1", r2)
	}
}

func TestFitNoisyRecoversCoefficients(t *testing.T) {
	rng := sim.NewRNG(42)
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{1, a, b})
		y = append(y, 4+0.5*a-2*b+0.1*rng.NormFloat64())
	}
	m, err := Fit(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 0.5, -2}
	for i, w := range want {
		if math.Abs(m.Coef[i]-w) > 0.05 {
			t.Errorf("coef[%d] = %g, want ~%g", i, m.Coef[i], w)
		}
	}
}

func TestFitRejectsBadShapes(t *testing.T) {
	if _, err := Fit(nil, nil, 0); err == nil {
		t.Error("Fit accepted empty input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("Fit accepted mismatched lengths")
	}
	if _, err := Fit([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("Fit accepted ragged rows")
	}
	if _, err := Fit([][]float64{{1, 2}}, []float64{1}, 0); err == nil {
		t.Error("Fit accepted underdetermined system")
	}
}

func TestFitSingularWithoutRidge(t *testing.T) {
	// Perfectly collinear features.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	y := []float64{1, 2, 3}
	if _, err := Fit(x, y, 0); err == nil {
		t.Error("Fit accepted singular design without ridge")
	}
	if _, err := Fit(x, y, 1e-6); err != nil {
		t.Errorf("ridge fit failed on collinear design: %v", err)
	}
}

func TestPredictDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Predict with wrong dimension did not panic")
		}
	}()
	Model{Coef: []float64{1, 2}}.Predict([]float64{1})
}

// Property: for data generated by a linear model, the fit's residuals are
// orthogonal to the features (normal-equation optimality), checked via R2
// being no worse than the zero model.
func TestFitNeverWorseThanMeanProperty(t *testing.T) {
	rng := sim.NewRNG(7)
	f := func(seed uint16) bool {
		r := rng.Fork(string(rune(seed)))
		var x [][]float64
		var y []float64
		for i := 0; i < 30; i++ {
			a := r.Float64() * 5
			x = append(x, []float64{1, a})
			y = append(y, r.NormFloat64()*3+a)
		}
		m, err := Fit(x, y, 1e-9)
		if err != nil {
			return false
		}
		return m.R2(x, y) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fullFit is Fit as it was before FitEach: the whole of X'X accumulated
// for each target.
func fullFit(x [][]float64, y []float64, ridge float64) ([]float64, error) {
	d := len(x[0])
	a := make([][]float64, d)
	b := make([]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	for _, row := range x {
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	for k, row := range x {
		for i := 0; i < d; i++ {
			b[i] += row[i] * y[k]
		}
	}
	for i := 0; i < d; i++ {
		a[i][i] += ridge
	}
	return solve(a, b)
}

// TestFitEachMatchesFullAccumulation holds FitEach, which accumulates X'X
// once as a mirrored upper triangle for all targets, to fits that
// accumulate the whole matrix per target: every coefficient keeps its
// bits.
func TestFitEachMatchesFullAccumulation(t *testing.T) {
	rng := sim.NewRNG(11)
	var x [][]float64
	var y1, y2 []float64
	for i := 0; i < 300; i++ {
		row := []float64{1}
		for j := 1; j < 9; j++ {
			row = append(row, rng.NormFloat64()*math.Pow(10, float64(j%4)))
		}
		x = append(x, row)
		y1 = append(y1, 3*row[1]-row[5]+rng.NormFloat64())
		y2 = append(y2, row[2]*row[3]+0.1*rng.NormFloat64())
	}
	ms, err := FitEach(x, 1e-6, y1, y2)
	if err != nil {
		t.Fatal(err)
	}
	for k, y := range [][]float64{y1, y2} {
		want, err := fullFit(x, y, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := ms[k].Coef[i]; math.Float64bits(got) != math.Float64bits(w) {
				t.Errorf("target %d coef[%d] = %v, full accumulation gives %v", k, i, got, w)
			}
		}
	}
}
