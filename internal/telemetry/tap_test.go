package telemetry

import (
	"testing"
	"time"

	"pupil/internal/sim"
)

// quietSensor samples a constant source with no noise, so tap behavior is
// exactly observable.
func quietSensor(source func() float64) *Sensor {
	return NewSensor("test", source, 10*time.Millisecond, 64, NoiseSpec{}, sim.NewRNG(1))
}

func TestSensorTapTransformsReadings(t *testing.T) {
	s := quietSensor(func() float64 { return 100 })
	s.SetTap(func(_ time.Duration, v float64) (float64, bool) { return v * 2, true })
	s.Tick(0)
	if got, _ := s.Window().At(0); got.V != 200 {
		t.Errorf("tapped reading = %g, want 200", got.V)
	}
}

func TestSensorTapDropoutSkipsRetention(t *testing.T) {
	s := quietSensor(func() float64 { return 100 })
	trace := sim.NewSeries("trace")
	s.Record(trace)

	s.Tick(0) // healthy baseline
	s.SetTap(func(time.Duration, float64) (float64, bool) { return 0, false })
	s.Tick(10 * time.Millisecond)
	s.Tick(20 * time.Millisecond)

	if got, _ := s.Window().At(20 * time.Millisecond); got.T != 0 {
		t.Errorf("dropout retained a reading at %v; window must hold only the t=0 sample", got.T)
	}
	if trace.Len() != 1 {
		t.Errorf("trace recorded %d readings through a dropout, want 1", trace.Len())
	}

	s.SetTap(nil) // removing the tap restores the sensor
	s.Tick(30 * time.Millisecond)
	if got, _ := s.Window().At(30 * time.Millisecond); got.T != 30*time.Millisecond || got.V != 100 {
		t.Errorf("post-tap reading = %+v", got)
	}
}

func TestSensorTapSeesPostNoiseValue(t *testing.T) {
	spec := NoiseSpec{RelStdDev: 0.1}
	s := NewSensor("noisy", func() float64 { return 100 }, 10*time.Millisecond, 64, spec, sim.NewRNG(7))
	var seen float64
	s.SetTap(func(_ time.Duration, v float64) (float64, bool) { seen = v; return v, true })
	s.Tick(0)
	if seen == 100 {
		t.Error("tap saw the clean value; it must run after noise is applied")
	}
	if got, _ := s.Window().At(0); got.V != seen {
		t.Errorf("window retained %g but tap passed %g", got.V, seen)
	}
}
