package telemetry

import (
	"sort"
	"time"

	"pupil/internal/sim"
)

// Reading is one timestamped sensor measurement.
type Reading struct {
	T time.Duration
	V float64
}

// Window is a bounded sliding window of readings, oldest first. It stores
// only the readings' values, in a circular buffer, so adding a reading is
// O(1) even when the window is full — the sensor tick is on the
// simulation's hot path. Their times repeat the sensor's cadence, so the
// window keeps them as a few marks instead: reading seq+k of a mark was
// taken at t + k·step. A reading off the cadence (a dropped sample, a
// disengaged firmware, an irregular input) starts a new mark, so a steady
// sensor's window holds one mark and a window under a dropout fault one
// per gap. Readings are added in time order.
type Window struct {
	vals  []float64 // ring storage, allocated lazily on first Add
	cap   int
	head  int // index of the oldest retained reading
	count int
	next  int       // sequence number of the next reading added
	marks []mark    // oldest first; marks[0] covers the oldest retained reading
	out   []float64 // scratch reused by Since
}

// mark anchors a run of readings on one cadence: reading seq+k was taken
// at t + k·step. A mark's second reading sets its step, and the mark runs
// until the next mark's seq.
type mark struct {
	seq  int
	t    time.Duration
	step time.Duration
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
	if w.vals == nil {
		w.vals = make([]float64, w.cap)
	}
	if w.count == w.cap {
		w.vals[w.head] = r.V
		w.head++
		if w.head == w.cap {
			w.head = 0
		}
	} else {
		idx := w.head + w.count
		if idx >= w.cap {
			idx -= w.cap
		}
		w.vals[idx] = r.V
		w.count++
	}
	w.stamp(r.T)
}

// stamp records the time of reading w.next and drops the marks that cover
// only evicted readings.
func (w *Window) stamp(t time.Duration) {
	n := len(w.marks)
	switch {
	case n == 0:
		w.marks = append(w.marks, mark{seq: w.next, t: t})
	case w.next-w.marks[n-1].seq == 1:
		w.marks[n-1].step = t - w.marks[n-1].t
	default:
		if m := w.marks[n-1]; m.t+time.Duration(w.next-m.seq)*m.step != t {
			w.marks = append(w.marks, mark{seq: w.next, t: t})
		}
	}
	w.next++
	oldest := w.next - w.count
	for len(w.marks) > 1 && w.marks[1].seq <= oldest {
		w.marks = w.marks[1:]
	}
}

// Len returns the number of retained readings.
func (w *Window) Len() int { return w.count }

// Cap returns how many readings the window retains at most.
func (w *Window) Cap() int { return w.cap }

// Clone returns an independent copy of the window.
func (w *Window) Clone() *Window {
	c := *w
	if w.vals != nil {
		c.vals = append([]float64(nil), w.vals...)
	}
	c.marks = append([]mark(nil), w.marks...)
	c.out = nil
	return &c
}

// Readings appends the retained readings to dst, oldest first.
func (w *Window) Readings(dst []Reading) []Reading {
	for i := 0; i < w.count; i++ {
		dst = append(dst, Reading{T: w.time(i), V: w.val(i)})
	}
	return dst
}

// val returns the value of the i-th retained reading, oldest first.
func (w *Window) val(i int) float64 {
	idx := w.head + i
	if idx >= w.cap {
		idx -= w.cap
	}
	return w.vals[idx]
}

// time returns the time of the i-th retained reading, oldest first,
// finding its mark by binary search.
func (w *Window) time(i int) time.Duration {
	seq := w.next - w.count + i
	m := w.marks[sort.Search(len(w.marks), func(j int) bool { return w.marks[j].seq > seq })-1]
	return m.t + time.Duration(seq-m.seq)*m.step
}

// Since returns the values of readings taken at or after t, oldest first.
// The returned slice is scratch owned by the window and is overwritten by
// the next Since call; callers consume it before touching the window again.
func (w *Window) Since(t time.Duration) []float64 {
	// Readings arrive in time order, so binary-search the first one at or
	// after t instead of scanning the whole ring.
	lo := sort.Search(w.count, func(i int) bool { return w.time(i) >= t })
	if lo == w.count {
		return nil
	}
	w.out = w.out[:0]
	for i := lo; i < w.count; i++ {
		w.out = append(w.out, w.val(i))
	}
	return w.out
}

// At returns the newest reading taken at or before t, and false when the
// window holds none.
func (w *Window) At(t time.Duration) (Reading, bool) {
	i := sort.Search(w.count, func(i int) bool { return w.time(i) > t })
	if i == 0 {
		return Reading{}, false
	}
	return Reading{T: w.time(i - 1), V: w.val(i - 1)}, true
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
