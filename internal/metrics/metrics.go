// Package metrics implements the paper's evaluation metrics (Section 4.3):
// settling time for timeliness, weighted speedup for multi-application
// efficiency, harmonic means for summarizing across applications, and
// performance-per-Watt for energy efficiency.
package metrics

import (
	"math"
	"time"

	"pupil/internal/sim"
)

// SettlingSpec configures settling-time detection on a power trace.
type SettlingSpec struct {
	// CapWatts is the power cap being enforced.
	CapWatts float64
	// CapSlack is the relative overshoot of the cap tolerated
	// (sensor-noise allowance; 0.03 = 3%).
	CapSlack float64
	// Tail is the fraction of the trace (from the end) whose mean must
	// respect the cap for the run to count as settled at all.
	Tail float64
}

// DefaultSettling returns the detection parameters used throughout the
// evaluation.
func DefaultSettling(capWatts float64) SettlingSpec {
	return SettlingSpec{CapWatts: capWatts, CapSlack: 0.03, Tail: 0.2}
}

// SettlingTime returns the settling time of a power trace per Equation 5 of
// the paper: the duration from the start of control (t0, the trace's first
// sample) until the power cap is stably enforced.
//
// Enforcement is one-sided — a power cap is a safety bound, and operating
// below it is enforced, not unsettled (PUPiL explores configurations well
// under the cap while hardware guarantees the bound; Fig. 1's software
// trace "operates below the cap" before converging). The system has
// settled at the earliest time after which no sample exceeds the cap by
// more than the slack; a trace that never violates settles at 0. ok is
// false when the trace's tail still violates the cap (the controller
// cannot meet it, e.g. Soft-DVFS at 60 W).
func SettlingTime(trace *sim.Series, spec SettlingSpec) (settle time.Duration, ok bool) {
	n := trace.Len()
	if n == 0 {
		return 0, false
	}
	samples := trace.Samples
	t0 := samples[0].T
	tEnd := samples[n-1].T
	capLimit := spec.CapWatts * (1 + spec.CapSlack)

	tailStart := tEnd - time.Duration(float64(tEnd-t0)*spec.Tail)
	if trace.MeanBetween(tailStart, tEnd+1) > capLimit {
		return 0, false
	}

	// Scan backwards for the last sample violating the cap; settling is
	// just after it.
	last := -1
	for i := n - 1; i >= 0; i-- {
		if samples[i].V > capLimit {
			last = i
			break
		}
	}
	if last == n-1 {
		return 0, false // still violating at the end of the trace
	}
	if last < 0 {
		return 0, true // the cap was never violated
	}
	return samples[last+1].T - t0, true
}

// Smooth returns a copy of the series where each sample is replaced by the
// trailing mean over the given window. Power-cap enforcement is defined
// over RAPL's averaging window (an energy budget per window), and physical
// meters integrate over comparable spans, so enforcement analysis runs on
// the smoothed trace rather than instantaneous samples.
func Smooth(s *sim.Series, window time.Duration) *sim.Series {
	out := sim.NewSeries(s.Name + "_smoothed")
	if s.Len() == 0 {
		return out
	}
	out.Grow(s.Len())
	start := 0
	sum := 0.0
	for i, sm := range s.Samples {
		sum += sm.V
		for s.Samples[start].T < sm.T-window {
			sum -= s.Samples[start].V
			start++
		}
		out.Add(sm.T, sum/float64(i-start+1))
	}
	return out
}

// WeightedSpeedup is the paper's multi-application efficiency metric
// (Section 4.3.2): each application's rate in the mix weighted by the rate
// it achieves running alone. alone[i] must be positive.
func WeightedSpeedup(mixRates, alone []float64) float64 {
	ws := 0.0
	for i, r := range mixRates {
		if i < len(alone) && alone[i] > 0 {
			ws += r / alone[i]
		}
	}
	return ws
}

// HarmonicMean returns the harmonic mean of positive values, the summary
// statistic of Table 3. Non-positive values make the mean zero, matching
// the convention that one infeasible application zeroes the summary.
func HarmonicMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		sum += 1 / v
	}
	return float64(len(values)) / sum
}

// GeometricMean returns the geometric mean of positive values; used for
// summarizing ratio metrics (Fig. 6's per-mix ratios).
func GeometricMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// Efficiency returns performance per Watt, the energy-efficiency metric of
// Section 5.5 ("how much work can be done per joule").
func Efficiency(perf, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return perf / watts
}

// ConvergenceTime returns when a performance trace converges: the earliest
// time after which every sample stays within band (relative) of the
// trace's final steady level (the mean of its last tail fraction). This is
// the *efficiency* convergence of Fig. 1 — distinct from cap enforcement:
// PUPiL enforces power in milliseconds but converges performance over the
// seconds its walk takes. ok is false for empty traces or a zero steady
// level.
func ConvergenceTime(trace *sim.Series, band, tail float64) (conv time.Duration, ok bool) {
	n := trace.Len()
	if n == 0 {
		return 0, false
	}
	samples := trace.Samples
	t0 := samples[0].T
	tEnd := samples[n-1].T
	tailStart := tEnd - time.Duration(float64(tEnd-t0)*tail)
	steady := trace.MeanBetween(tailStart, tEnd+1)
	if steady <= 0 {
		return 0, false
	}
	last := -1
	for i := n - 1; i >= 0; i-- {
		if math.Abs(samples[i].V-steady) > band*steady {
			last = i
			break
		}
	}
	if last == n-1 {
		return 0, false
	}
	if last < 0 {
		return 0, true
	}
	return samples[last+1].T - t0, true
}
