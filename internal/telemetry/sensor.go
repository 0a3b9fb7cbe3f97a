package telemetry

import (
	"time"

	"pupil/internal/sim"
)

// Reading is one timestamped sensor measurement.
type Reading struct {
	T time.Duration
	V float64
}

// Window is a bounded sliding window of readings, oldest first. Storage is
// a circular buffer, so adding a reading is O(1) even when the window is
// full — the sensor tick is on the simulation's hot path and the old
// shift-on-evict cost dominated whole-run profiles.
type Window struct {
	data  []Reading // ring storage, allocated lazily on first Add
	cap   int
	head  int // index of the oldest retained reading
	count int
	vals  []float64 // scratch reused by Since
}

// NewWindow returns a window retaining at most capacity readings.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 1
	}
	return &Window{cap: capacity}
}

// Add appends a reading, evicting the oldest when full.
func (w *Window) Add(r Reading) {
	if w.data == nil {
		w.data = make([]Reading, w.cap)
	}
	if w.count == w.cap {
		w.data[w.head] = r
		w.head++
		if w.head == w.cap {
			w.head = 0
		}
		return
	}
	idx := w.head + w.count
	if idx >= w.cap {
		idx -= w.cap
	}
	w.data[idx] = r
	w.count++
}

// Len returns the number of retained readings.
func (w *Window) Len() int { return w.count }

// Cap returns how many readings the window retains at most.
func (w *Window) Cap() int { return w.cap }

// Readings appends the retained readings to dst, oldest first.
func (w *Window) Readings(dst []Reading) []Reading {
	for i := 0; i < w.count; i++ {
		dst = append(dst, w.at(i))
	}
	return dst
}

// at returns the i-th retained reading, oldest first.
func (w *Window) at(i int) Reading {
	idx := w.head + i
	if idx >= w.cap {
		idx -= w.cap
	}
	return w.data[idx]
}

// Since returns the values of readings taken at or after t, oldest first.
// The returned slice is scratch owned by the window and is overwritten by
// the next Since call; callers consume it before touching the window again.
func (w *Window) Since(t time.Duration) []float64 {
	// Readings arrive in time order, so binary-search the first index at
	// or after t instead of scanning the whole ring.
	lo, hi := 0, w.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.at(mid).T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == w.count {
		return nil
	}
	w.vals = w.vals[:0]
	for i := lo; i < w.count; i++ {
		w.vals = append(w.vals, w.at(i).V)
	}
	return w.vals
}

// Last returns the most recent reading, or a zero Reading when empty.
func (w *Window) Last() Reading {
	if w.count == 0 {
		return Reading{}
	}
	return w.at(w.count - 1)
}

// FilteredMean applies the paper's 3-sigma filter to the readings taken at
// or after t and returns the filtered mean plus the raw sample count.
func (w *Window) FilteredMean(t time.Duration) (mean float64, samples int) {
	vals := w.Since(t)
	m, _ := SigmaFilter(vals, 3)
	return m, len(vals)
}

// NoiseSpec configures a sensor's imperfection: multiplicative Gaussian
// noise plus occasional outliers (a page fault or SMI landing inside the
// measurement window).
type NoiseSpec struct {
	// RelStdDev is the standard deviation of multiplicative noise
	// (0.01 = 1% jitter).
	RelStdDev float64
	// OutlierProb is the per-sample probability of an outlier.
	OutlierProb float64
	// OutlierMag is the relative magnitude of outliers (0.5 = the sample
	// reads 50% off).
	OutlierMag float64
}

// DefaultPerfNoise models heartbeat-style performance feedback: noticeable
// jitter with occasional large excursions, which is why the paper filters.
func DefaultPerfNoise() NoiseSpec {
	return NoiseSpec{RelStdDev: 0.03, OutlierProb: 0.01, OutlierMag: 0.6}
}

// DefaultPowerNoise models an on-board power monitor.
func DefaultPowerNoise() NoiseSpec {
	return NoiseSpec{RelStdDev: 0.015, OutlierProb: 0.002, OutlierMag: 0.3}
}

// Tap intercepts a sensor's readings after noise is applied but before
// retention: it returns the (possibly transformed) value and whether the
// reading is delivered at all. Returning false models a dropout — the
// sample is lost and the window keeps only stale data. Fault-injection
// layers install taps to make sensors lie deterministically.
type Tap func(now time.Duration, v float64) (float64, bool)

// Sensor periodically samples a scalar source, perturbs it per its
// NoiseSpec, and retains readings in a Window. It implements sim.Ticker.
type Sensor struct {
	name   string
	source func() float64
	period time.Duration
	noise  NoiseSpec
	rng    *sim.RNG
	window *Window
	trace  *sim.Series // optional clean trace of noisy readings
	tap    Tap
}

// NewSensor builds a sensor named name sampling source every period. The
// window retains windowLen readings. rng must be a dedicated stream.
func NewSensor(name string, source func() float64, period time.Duration, windowLen int, noise NoiseSpec, rng *sim.RNG) *Sensor {
	return &Sensor{
		name:   name,
		source: source,
		period: period,
		noise:  noise,
		rng:    rng,
		window: NewWindow(windowLen),
	}
}

// SetTap installs (or, with nil, removes) a reading interceptor.
func (s *Sensor) SetTap(tap Tap) { s.tap = tap }

// Record attaches a series that receives every noisy reading, for tracing.
func (s *Sensor) Record(series *sim.Series) { s.trace = series }

// Trace returns the attached recording series, or nil when none is set.
func (s *Sensor) Trace() *sim.Series { return s.trace }

// Window exposes the sensor's sliding window.
func (s *Sensor) Window() *Window { return s.window }

// Period implements sim.Ticker.
func (s *Sensor) Period() time.Duration { return s.period }

// Tick implements sim.Ticker: sample, perturb, retain.
func (s *Sensor) Tick(now time.Duration) {
	v := s.source()
	if s.noise.RelStdDev > 0 {
		v *= 1 + s.noise.RelStdDev*s.rng.NormFloat64()
	}
	if s.noise.OutlierProb > 0 && s.rng.Float64() < s.noise.OutlierProb {
		sign := 1.0
		if s.rng.Float64() < 0.5 {
			sign = -1
		}
		v *= 1 + sign*s.noise.OutlierMag
	}
	if v < 0 {
		v = 0
	}
	if s.tap != nil {
		var ok bool
		v, ok = s.tap(now, v)
		if !ok {
			return // reading lost; the window retains only stale data
		}
		if v < 0 {
			v = 0
		}
	}
	s.window.Add(Reading{T: now, V: v})
	if s.trace != nil {
		s.trace.Add(now, v)
	}
}
