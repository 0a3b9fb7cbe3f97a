package metrics

import (
	"math"
	"testing"
	"time"

	"pupil/internal/sim"
)

func trace(vals ...float64) *sim.Series {
	s := sim.NewSeries("power")
	for i, v := range vals {
		s.Add(time.Duration(i)*100*time.Millisecond, v)
	}
	return s
}

func TestSettlingTimeThrottleDownFromOvershoot(t *testing.T) {
	// The RAPL shape: uncapped power above the cap for 10 samples, then
	// held at the cap. Settling is at the first compliant sample.
	vals := make([]float64, 0, 50)
	for i := 0; i < 10; i++ {
		vals = append(vals, 180)
	}
	for i := 0; i < 40; i++ {
		vals = append(vals, 138)
	}
	settle, ok := SettlingTime(trace(vals...), DefaultSettling(140))
	if !ok {
		t.Fatal("trace did not settle")
	}
	if settle != 1000*time.Millisecond {
		t.Errorf("settling time = %v, want 1s", settle)
	}
}

func TestSettlingTimeBelowCapIsEnforced(t *testing.T) {
	// The PUPiL walk shape: power wanders far below the cap, never above
	// it. The cap is enforced from t=0.
	vals := []float64{40, 60, 55, 90, 120, 138, 139, 138, 139, 138}
	settle, ok := SettlingTime(trace(vals...), DefaultSettling(140))
	if !ok || settle != 0 {
		t.Errorf("below-cap trace settling = (%v, %v), want (0, true)", settle, ok)
	}
}

func TestSettlingTimeImmediate(t *testing.T) {
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = 100
	}
	settle, ok := SettlingTime(trace(vals...), DefaultSettling(120))
	if !ok || settle != 0 {
		t.Errorf("flat trace settling = (%v, %v), want (0, true)", settle, ok)
	}
}

func TestSettlingTimeLateOvershootDelaysSettling(t *testing.T) {
	// The Soft-Decision shape (Fig. 1): mostly under the cap but briefly
	// exceeding it mid-run; settling lands after the violation.
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 100
	}
	vals[20] = 115 // cap 105, slack 3% -> violation
	settle, ok := SettlingTime(trace(vals...), DefaultSettling(105))
	if !ok {
		t.Fatal("trace did not settle")
	}
	if settle != 2100*time.Millisecond {
		t.Errorf("settling time = %v, want 2.1s (just after the violation)", settle)
	}
}

func TestSettlingTimeNeverSettles(t *testing.T) {
	// Tail mean above the cap: the controller cannot meet it (Soft-DVFS
	// at 60 W).
	vals := make([]float64, 40)
	for i := range vals {
		vals[i] = 70
	}
	if _, ok := SettlingTime(trace(vals...), DefaultSettling(60)); ok {
		t.Error("cap-violating trace reported as settled")
	}
}

func TestSettlingTimeEmptyTrace(t *testing.T) {
	if _, ok := SettlingTime(sim.NewSeries("p"), DefaultSettling(100)); ok {
		t.Error("empty trace reported as settled")
	}
}

func TestWeightedSpeedup(t *testing.T) {
	ws := WeightedSpeedup([]float64{5, 2}, []float64{10, 8})
	if math.Abs(ws-0.75) > 1e-12 {
		t.Errorf("WeightedSpeedup = %g, want 0.75", ws)
	}
}

func TestWeightedSpeedupSkipsZeroBaselines(t *testing.T) {
	ws := WeightedSpeedup([]float64{5, 2}, []float64{10, 0})
	if math.Abs(ws-0.5) > 1e-12 {
		t.Errorf("WeightedSpeedup with zero baseline = %g, want 0.5", ws)
	}
}

func TestHarmonicMean(t *testing.T) {
	hm := HarmonicMean([]float64{1, 0.5})
	if math.Abs(hm-2.0/3.0) > 1e-12 {
		t.Errorf("HarmonicMean = %g, want 2/3", hm)
	}
	if HarmonicMean(nil) != 0 {
		t.Error("HarmonicMean(nil) != 0")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("HarmonicMean with a zero should be 0")
	}
}

func TestHarmonicMeanDominatedByWorst(t *testing.T) {
	hm := HarmonicMean([]float64{0.9, 0.9, 0.1})
	am := (0.9 + 0.9 + 0.1) / 3
	if hm >= am {
		t.Errorf("harmonic mean %g should fall below arithmetic mean %g", hm, am)
	}
}

func TestEfficiency(t *testing.T) {
	if e := Efficiency(50, 100); e != 0.5 {
		t.Errorf("Efficiency = %g, want 0.5", e)
	}
	if e := Efficiency(50, 0); e != 0 {
		t.Errorf("Efficiency with zero power = %g, want 0", e)
	}
}

func TestConvergenceTime(t *testing.T) {
	// Perf ramps over 10 samples then holds.
	vals := make([]float64, 0, 60)
	for i := 0; i < 10; i++ {
		vals = append(vals, float64(i))
	}
	for i := 0; i < 50; i++ {
		vals = append(vals, 10)
	}
	conv, ok := ConvergenceTime(trace(vals...), 0.05, 0.2)
	if !ok {
		t.Fatal("trace did not converge")
	}
	if conv != 1000*time.Millisecond {
		t.Errorf("convergence = %v, want 1s", conv)
	}
	if _, ok := ConvergenceTime(sim.NewSeries("x"), 0.05, 0.2); ok {
		t.Error("empty trace converged")
	}
	// A trace oscillating to the very end never converges.
	osc := make([]float64, 40)
	for i := range osc {
		osc[i] = float64(5 + 4*(i%2))
	}
	if _, ok := ConvergenceTime(trace(osc...), 0.05, 0.2); ok {
		t.Error("oscillating trace converged")
	}
}
