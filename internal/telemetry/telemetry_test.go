package telemetry

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pupil/internal/sim"
)

func TestSigmaFilterEmpty(t *testing.T) {
	m, k := SigmaFilter(nil, 3)
	if m != 0 || k != 0 {
		t.Errorf("SigmaFilter(nil) = (%g, %d), want (0, 0)", m, k)
	}
}

func TestSigmaFilterUniform(t *testing.T) {
	m, k := SigmaFilter([]float64{5, 5, 5, 5}, 3)
	if m != 5 || k != 4 {
		t.Errorf("SigmaFilter uniform = (%g, %d), want (5, 4)", m, k)
	}
}

func TestSigmaFilterRemovesOutlier(t *testing.T) {
	// 20 samples near 10 and one absurd outlier: the filter must discard
	// the outlier and return something near 10; the raw mean would not.
	vals := make([]float64, 0, 21)
	for i := 0; i < 20; i++ {
		vals = append(vals, 10+0.1*float64(i%5))
	}
	vals = append(vals, 1000)
	m, kept := SigmaFilter(vals, 3)
	if kept != 20 {
		t.Errorf("kept %d samples, want 20 (outlier removed)", kept)
	}
	if math.Abs(m-10.2) > 0.3 {
		t.Errorf("filtered mean = %g, want ~10.2", m)
	}
}

func TestSigmaFilterKeepsLegitimateSpread(t *testing.T) {
	vals := []float64{9, 10, 11, 10, 9, 11, 10}
	_, kept := SigmaFilter(vals, 3)
	if kept != len(vals) {
		t.Errorf("kept %d of %d well-behaved samples", kept, len(vals))
	}
}

// Property: the filtered mean always lies within the range of the inputs.
func TestSigmaFilterBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		m, kept := SigmaFilter(vals, 3)
		return kept >= 1 && m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 5; i++ {
		w.Add(Reading{T: time.Duration(i) * time.Second, V: float64(i)})
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	vals := w.Since(0)
	want := []float64{2, 3, 4}
	for i, v := range want {
		if vals[i] != v {
			t.Errorf("window[%d] = %g, want %g", i, vals[i], v)
		}
	}
	if r, _ := w.At(4 * time.Second); r.V != 4 {
		t.Errorf("At(4s) = %g, want 4", r.V)
	}
}

func TestWindowSinceFilters(t *testing.T) {
	w := NewWindow(10)
	for i := 0; i < 10; i++ {
		w.Add(Reading{T: time.Duration(i) * time.Second, V: float64(i)})
	}
	got := w.Since(7 * time.Second)
	if len(got) != 3 {
		t.Errorf("Since(7s) returned %d readings, want 3", len(got))
	}
}

func TestWindowEmptyAt(t *testing.T) {
	w := NewWindow(4)
	if r, ok := w.At(time.Hour); ok || r != (Reading{}) {
		t.Errorf("empty window At = %+v, %v", r, ok)
	}
}

func TestSensorSamplesSource(t *testing.T) {
	val := 100.0
	s := NewSensor("power", func() float64 { return val }, 10*time.Millisecond, 64,
		NoiseSpec{}, sim.NewRNG(1))
	r := sim.NewRunner(nil)
	r.Register(s)
	r.Run(100 * time.Millisecond)
	if s.Window().Len() != 10 {
		t.Fatalf("window has %d readings, want 10", s.Window().Len())
	}
	if r, _ := s.Window().At(90 * time.Millisecond); r.V != 100 {
		t.Errorf("noise-free sensor read %g, want 100", r.V)
	}
}

func TestSensorNoiseIsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := NewSensor("p", func() float64 { return 50 }, 10*time.Millisecond, 64,
			DefaultPerfNoise(), sim.NewRNG(7))
		r := sim.NewRunner(nil)
		r.Register(s)
		r.Run(200 * time.Millisecond)
		return s.Window().Since(0)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed sensor runs diverged at sample %d", i)
		}
	}
}

func TestSensorNoiseStaysNearTruth(t *testing.T) {
	s := NewSensor("p", func() float64 { return 80 }, time.Millisecond, 4096,
		DefaultPowerNoise(), sim.NewRNG(3))
	r := sim.NewRunner(nil)
	r.Register(s)
	r.Run(4 * time.Second)
	m, _ := s.Window().FilteredMean(0)
	if math.Abs(m-80) > 1 {
		t.Errorf("filtered mean %g strays from truth 80", m)
	}
}

func TestSensorNeverNegative(t *testing.T) {
	s := NewSensor("p", func() float64 { return 0.001 }, time.Millisecond, 4096,
		NoiseSpec{RelStdDev: 2, OutlierProb: 0.5, OutlierMag: 5}, sim.NewRNG(9))
	r := sim.NewRunner(nil)
	r.Register(s)
	r.Run(time.Second)
	for _, v := range s.Window().Since(0) {
		if v < 0 {
			t.Fatalf("sensor produced negative reading %g", v)
		}
	}
}

func TestSensorRecordsTrace(t *testing.T) {
	tr := sim.NewSeries("power")
	s := NewSensor("p", func() float64 { return 1 }, 10*time.Millisecond, 8, NoiseSpec{}, sim.NewRNG(1))
	s.Record(tr)
	r := sim.NewRunner(nil)
	r.Register(s)
	r.Run(50 * time.Millisecond)
	if tr.Len() != 5 {
		t.Errorf("trace has %d samples, want 5", tr.Len())
	}
}

func TestFilteredMeanIgnoresOldReadings(t *testing.T) {
	w := NewWindow(100)
	for i := 0; i < 50; i++ {
		w.Add(Reading{T: time.Duration(i) * time.Millisecond, V: 1})
	}
	for i := 50; i < 100; i++ {
		w.Add(Reading{T: time.Duration(i) * time.Millisecond, V: 9})
	}
	m, n := w.FilteredMean(50 * time.Millisecond)
	if m != 9 || n != 50 {
		t.Errorf("FilteredMean = (%g, %d), want (9, 50)", m, n)
	}
}
