package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Sample is one timestamped measurement in a Series.
type Sample struct {
	T time.Duration
	V float64
}

// Series is an append-only time series, e.g. a power or performance trace.
// A series keeps every sample unless Retain bounds it to a trailing
// window.
type Series struct {
	Name    string
	Samples []Sample
	// keep is the trailing window a retained series must hold; <= 0 keeps
	// every sample.
	keep time.Duration
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends a sample. Samples must be appended in non-decreasing time
// order; Add panics otherwise because an out-of-order trace indicates a
// kernel bug.
func (s *Series) Add(t time.Duration, v float64) {
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		panic(fmt.Sprintf("sim: series %q sample at %v precedes last sample at %v",
			s.Name, t, s.Samples[n-1].T))
	}
	if s.keep > 0 && len(s.Samples) == cap(s.Samples) {
		s.compact(t - s.keep)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
}

// Retain bounds the series to a trailing window: from now on it keeps the
// samples no older than d before its newest one, and may drop the rest.
// Windowed reads ending at or after the newest sample and no longer than d
// (MeanBetween, Between) see exactly the samples, in the same order, that
// an unbounded series would. d <= 0 keeps every sample again.
func (s *Series) Retain(d time.Duration) { s.keep = d }

// compact drops the samples older than cutoff in place, but only once at
// least half of the backing array is that old: otherwise append grows it,
// so each retained sample is copied O(1) times on average and the array
// settles at about twice the window.
func (s *Series) compact(cutoff time.Duration) {
	old := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= cutoff })
	if 2*old < len(s.Samples) {
		return
	}
	s.Samples = s.Samples[:copy(s.Samples, s.Samples[old:])]
}

// Grow reserves capacity for at least n further samples. Callers that know
// a run's length up front (the driver does: duration / sensor period) use
// it to keep steady-state ticking free of trace reallocation; when the
// existing capacity is insufficient it at least doubles, so interleaved
// Grow/Add sequences stay amortized O(1) like plain append.
func (s *Series) Grow(n int) {
	if n <= 0 {
		return
	}
	need := len(s.Samples) + n
	if cap(s.Samples) >= need {
		return
	}
	newCap := 2 * cap(s.Samples)
	if newCap < need {
		newCap = need
	}
	grown := make([]Sample, len(s.Samples), newCap)
	copy(grown, s.Samples)
	s.Samples = grown
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Samples) }

// Between returns the samples with from <= T < to. The returned slice
// aliases the series storage and must not be mutated.
func (s *Series) Between(from, to time.Duration) []Sample {
	lo := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= from })
	hi := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T >= to })
	return s.Samples[lo:hi]
}

// MeanBetween averages sample values with from <= T < to. It returns 0 when
// the window contains no samples.
func (s *Series) MeanBetween(from, to time.Duration) float64 {
	w := s.Between(from, to)
	if len(w) == 0 {
		return 0
	}
	sum := 0.0
	for _, sm := range w {
		sum += sm.V
	}
	return sum / float64(len(w))
}

// CSV renders the series as two-column CSV (seconds, value) for external
// plotting.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t_seconds,%s\n", s.Name)
	for _, sm := range s.Samples {
		fmt.Fprintf(&b, "%.4f,%.6g\n", sm.T.Seconds(), sm.V)
	}
	return b.String()
}
