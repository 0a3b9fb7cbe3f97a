package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Millisecond)
	c.Advance(10 * time.Millisecond)
	if c.Now() != 15*time.Millisecond {
		t.Errorf("Now = %v, want 15ms", c.Now())
	}
}

func TestClockRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-time.Millisecond)
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGForkIndependent(t *testing.T) {
	parent := NewRNG(7)
	f1 := parent.Fork("telemetry")
	f2 := parent.Fork("workload")
	if f1.Uint64() == f2.Uint64() {
		t.Errorf("differently-labelled forks produced identical first draws")
	}
	// Forking must not consume parent state.
	p2 := NewRNG(7)
	p2.Fork("telemetry")
	p2.Fork("workload")
	a, b := NewRNG(7), p2
	a.Fork("x")
	if a.Uint64() != b.Uint64() {
		t.Errorf("Fork consumed parent randomness")
	}
}

func TestFloat64InRangeProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(123)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %g, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		p := r.Perm(10)
		seen := make([]bool, 10)
		for _, v := range p {
			if v < 0 || v >= 10 || seen[v] {
				t.Fatalf("Perm produced invalid permutation %v", p)
			}
			seen[v] = true
		}
	}
}

func TestSeriesWindowing(t *testing.T) {
	s := NewSeries("power")
	for i := 0; i < 10; i++ {
		s.Add(time.Duration(i)*time.Second, float64(i))
	}
	w := s.Between(3*time.Second, 6*time.Second)
	if len(w) != 3 || w[0].V != 3 || w[2].V != 5 {
		t.Errorf("Between(3s,6s) = %v, want values 3..5", w)
	}
	if m := s.MeanBetween(0, 10*time.Second); m != 4.5 {
		t.Errorf("MeanBetween = %g, want 4.5", m)
	}
}

// TestSeriesRetainBitIdentical pins the retention contract: a retained
// series answers every window no longer than its retention, ending at its
// newest sample, with exactly the samples in exactly the order of an
// unbounded twin, so every mean is equal bit for bit, while its backing
// array stops growing at about twice the window.
func TestSeriesRetainBitIdentical(t *testing.T) {
	rng := NewRNG(7)
	const period = 10 * time.Millisecond
	full, kept := NewSeries("full"), NewSeries("kept")
	keep := 200 * time.Millisecond
	kept.Retain(keep)
	// valid is the longest window the retained series can answer: a
	// raised retention covers only what was written since the raise on top
	// of the old window.
	valid := time.Duration(0)
	maxCap := 0
	for i := 1; i <= 20000; i++ {
		now := time.Duration(i) * period
		v := rng.NormFloat64()
		full.Add(now, v)
		kept.Add(now, v)
		valid = min(keep, valid+period)
		if i%5000 == 0 {
			keep *= 2
			kept.Retain(keep)
		}
		maxCap = max(maxCap, cap(kept.Samples))
		for _, w := range []time.Duration{period, valid / 3, valid} {
			from := now - w
			if a, b := full.MeanBetween(from, now+1), kept.MeanBetween(from, now+1); a != b {
				t.Fatalf("t=%v window %v: retained mean %v, unbounded %v", now, w, b, a)
			}
		}
	}
	// The final window is 1.6 s, 160 samples: the array may reach twice
	// that before a compaction, rounded up by append's growth.
	if maxCap > 512 {
		t.Errorf("retained series grew to %d samples of capacity for a 160-sample window", maxCap)
	}
	if full.Len() != 20000 {
		t.Errorf("unbounded series kept %d of 20000 samples", full.Len())
	}
}

func TestSeriesRejectsOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("out-of-order Add did not panic")
		}
	}()
	s := NewSeries("x")
	s.Add(2*time.Second, 1)
	s.Add(1*time.Second, 2)
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("watts")
	s.Add(0, 100)
	s.Add(time.Second, 105.5)
	csv := s.CSV()
	want := "t_seconds,watts\n0.0000,100\n1.0000,105.5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

type countingWorld struct{ steps int }

func (w *countingWorld) Step(now, dt time.Duration) { w.steps++ }

type countingTicker struct {
	period time.Duration
	fires  []time.Duration
}

func (t *countingTicker) Period() time.Duration { return t.period }
func (t *countingTicker) Tick(now time.Duration) {
	t.fires = append(t.fires, now)
}

func TestRunnerStepsAndTicks(t *testing.T) {
	w := &countingWorld{}
	r := NewRunner(w)
	tk := &countingTicker{period: 10 * time.Millisecond}
	r.Register(tk)
	r.Run(100 * time.Millisecond)
	if w.steps != 100 {
		t.Errorf("world stepped %d times, want 100", w.steps)
	}
	if len(tk.fires) != 10 {
		t.Errorf("ticker fired %d times, want 10", len(tk.fires))
	}
	if tk.fires[0] != 10*time.Millisecond {
		t.Errorf("first fire at %v, want 10ms", tk.fires[0])
	}
}

func TestRunnerTickerOrdering(t *testing.T) {
	var order []string
	mk := func(name string) Ticker {
		return tickFunc{p: 10 * time.Millisecond, f: func(time.Duration) { order = append(order, name) }}
	}
	r := NewRunner(nil)
	r.Register(mk("sensor"))
	r.Register(mk("controller"))
	r.Run(10 * time.Millisecond)
	if len(order) != 2 || order[0] != "sensor" || order[1] != "controller" {
		t.Errorf("tick order = %v, want [sensor controller]", order)
	}
}

type tickFunc struct {
	p time.Duration
	f func(time.Duration)
}

func (t tickFunc) Period() time.Duration  { return t.p }
func (t tickFunc) Tick(now time.Duration) { t.f(now) }

func TestRunnerStopsEarly(t *testing.T) {
	r := NewRunner(&countingWorld{})
	r.RunUntil(time.Second, func(now time.Duration) bool { return now >= 50*time.Millisecond })
	if r.Clock.Now() != 50*time.Millisecond {
		t.Errorf("stopped at %v, want 50ms", r.Clock.Now())
	}
}

func TestRunnerRejectsBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Register with zero period did not panic")
		}
	}()
	r := NewRunner(nil)
	r.Register(tickFunc{p: 0})
}

func TestRunnerRoundsPeriodUp(t *testing.T) {
	r := NewRunner(nil)
	tk := &countingTicker{period: 1500 * time.Microsecond}
	r.Register(tk)
	r.Run(10 * time.Millisecond)
	// Rounded up to 2ms -> fires at 2,4,6,8,10.
	if len(tk.fires) != 5 {
		t.Errorf("ticker fired %d times, want 5 after rounding to 2ms", len(tk.fires))
	}
}

// errCounter is a context that counts the calls to its Err method.
type errCounter struct {
	context.Context
	errs int
}

func (c *errCounter) Err() error {
	c.errs++
	return c.Context.Err()
}

// TestRunContextPollsDone pins the kernel's cancellation contract: the
// per-tick check polls the context's Done channel, so a run that is never
// cancelled reads Err at most once however many ticks it simulates, and a
// cancellation raised during a tick stops the run before the next one with
// the context's error.
func TestRunContextPollsDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	counted := &errCounter{Context: ctx}
	r := NewRunner(&countingWorld{})
	if err := r.RunContext(counted, 1000*Tick); err != nil {
		t.Fatalf("uncancelled RunContext = %v, want nil", err)
	}
	if r.Clock.Now() != 1000*Tick {
		t.Errorf("uncancelled run stopped at %v, want %v", r.Clock.Now(), 1000*Tick)
	}
	if counted.errs > 1 {
		t.Errorf("Err called %d times during a 1000-tick run, want at most 1", counted.errs)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r = NewRunner(&countingWorld{})
	r.Register(tickFunc{p: 250 * time.Millisecond, f: func(time.Duration) { cancel() }})
	if err := r.RunContext(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if r.Clock.Now() != 250*time.Millisecond {
		t.Errorf("cancelled run stopped at %v, want exactly 250ms", r.Clock.Now())
	}
}
