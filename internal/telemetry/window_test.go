package telemetry

import (
	"math"
	"slices"
	"testing"
	"time"

	"pupil/internal/sim"
)

// refWindow is the window as a plain ring of timestamped readings: the
// implementation Window replaced, kept as the reference it must match.
type refWindow struct {
	data        []Reading
	head, count int
}

func newRefWindow(capacity int) *refWindow { return &refWindow{data: make([]Reading, capacity)} }

func (w *refWindow) Add(r Reading) {
	if w.count == len(w.data) {
		w.data[w.head] = r
		w.head = (w.head + 1) % len(w.data)
		return
	}
	w.data[(w.head+w.count)%len(w.data)] = r
	w.count++
}

func (w *refWindow) at(i int) Reading { return w.data[(w.head+i)%len(w.data)] }

func (w *refWindow) Readings() []Reading {
	var out []Reading
	for i := 0; i < w.count; i++ {
		out = append(out, w.at(i))
	}
	return out
}

// Since binary-searches the first reading at or after t.
func (w *refWindow) Since(t time.Duration) []float64 {
	lo, hi := 0, w.count
	for lo < hi {
		mid := (lo + hi) / 2
		if w.at(mid).T < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == w.count {
		return nil
	}
	var out []float64
	for i := lo; i < w.count; i++ {
		out = append(out, w.at(i).V)
	}
	return out
}

// At scans newest to oldest for the first reading at or before t.
func (w *refWindow) At(t time.Duration) (Reading, bool) {
	for i := w.count - 1; i >= 0; i-- {
		if r := w.at(i); r.T <= t {
			return r, true
		}
	}
	return Reading{}, false
}

// cadenceTimes generates n reading times the way sensors and fault taps
// produce them: a regular cadence broken by dropped readings, long gaps,
// restarts on a new cadence, repeated times and arbitrary increments.
func cadenceTimes(rng *sim.RNG, n int) []time.Duration {
	steps := []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 7, 1}
	step := steps[rng.Intn(len(steps))]
	t := time.Duration(rng.Intn(1000)) * time.Millisecond
	out := make([]time.Duration, 0, n)
	for len(out) < n {
		out = append(out, t)
		switch p := rng.Float64(); {
		case p < 0.70:
			t += step
		case p < 0.80: // one or more dropped readings
			t += time.Duration(2+rng.Intn(3)) * step
		case p < 0.85: // a long gap
			t += time.Duration(rng.Intn(5000)) * time.Millisecond
		case p < 0.90: // a restart on a new cadence
			step = steps[rng.Intn(len(steps))]
			t += step
		case p < 0.95: // a repeated time
		default: // an arbitrary increment
			t += time.Duration(rng.Intn(int(3*step) + 1))
		}
	}
	return out
}

// TestWindowMatchesReadingRing: for generated reading sequences across
// wraps, every Len, Readings, Since and At of the value-only window equals
// that of a ring of timestamped readings, and marks stay bounded by half
// the readings.
func TestWindowMatchesReadingRing(t *testing.T) {
	rng := sim.NewRNG(31)
	for trial := 0; trial < 400; trial++ {
		capacity := []int{1, 2, 3, 8, 64}[rng.Intn(5)]
		times := cadenceTimes(rng, 1+rng.Intn(6*capacity+8))
		w, ref := NewWindow(capacity), newRefWindow(capacity)
		for k, tm := range times {
			r := Reading{T: tm, V: float64(k)}
			w.Add(r)
			ref.Add(r)
			if w.Len() != ref.count || w.Cap() != capacity {
				t.Fatalf("trial %d add %d: Len %d Cap %d, want %d and %d", trial, k, w.Len(), w.Cap(), ref.count, capacity)
			}
			want := ref.Readings()
			if got := w.Readings(nil); !slices.Equal(got, want) {
				t.Fatalf("trial %d add %d: Readings\n got %v\nwant %v", trial, k, got, want)
			}
			if len(w.marks) > w.Len()/2+2 {
				t.Fatalf("trial %d add %d: %d marks for %d readings", trial, k, len(w.marks), w.Len())
			}
			probes := []time.Duration{math.MinInt64, math.MaxInt64, tm + time.Duration(rng.Intn(20)) - 10}
			for j := 0; j < 6; j++ {
				q := want[rng.Intn(len(want))].T
				probes = append(probes, q-1, q, q+1)
			}
			for _, q := range probes {
				if got, want := w.Since(q), ref.Since(q); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("trial %d add %d: Since(%v) = %v, want %v", trial, k, q, got, want)
				}
				gr, gok := w.At(q)
				wr, wok := ref.At(q)
				if gr != wr || gok != wok {
					t.Fatalf("trial %d add %d: At(%v) = %+v %v, want %+v %v", trial, k, q, gr, gok, wr, wok)
				}
			}
		}
	}
}

// TestWindowSteadyCadenceKeepsOneMark: a sensor on its cadence keeps its
// times in one mark however often the ring wraps, and a dropout's marks
// are dropped once the readings they cover are evicted.
func TestWindowSteadyCadenceKeepsOneMark(t *testing.T) {
	w := NewWindow(64)
	tm := time.Duration(0)
	for i := 0; i < 1000; i++ {
		if i >= 300 && i < 340 && i%3 == 0 {
			tm += 10 * time.Millisecond // a dropped reading
		}
		w.Add(Reading{T: tm, V: 1})
		tm += 10 * time.Millisecond
		if i < 300 && len(w.marks) != 1 {
			t.Fatalf("reading %d on cadence: %d marks", i, len(w.marks))
		}
	}
	if len(w.marks) != 1 {
		t.Errorf("%d marks after the dropout's readings were evicted, want 1", len(w.marks))
	}
	if last, ok := w.At(tm); !ok || last.T != tm-10*time.Millisecond {
		t.Errorf("At(%v) = %+v, %v", tm, last, ok)
	}
}

// TestWindowCloneIsIndependent: a clone answers as the original and does
// not see readings added to it afterwards.
func TestWindowCloneIsIndependent(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 6; i++ {
		w.Add(Reading{T: time.Duration(i) * time.Second, V: float64(i)})
	}
	c := w.Clone()
	w.Add(Reading{T: 9 * time.Second, V: 9})
	want := []Reading{{2 * time.Second, 2}, {3 * time.Second, 3}, {4 * time.Second, 4}, {5 * time.Second, 5}}
	if got := c.Readings(nil); !slices.Equal(got, want) {
		t.Errorf("clone holds %v, want %v", got, want)
	}
}
