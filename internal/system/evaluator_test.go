package system

import (
	"math/rand"
	"testing"
	"time"

	"pupil/internal/machine"
)

// A long-lived Evaluator whose configuration mostly changes only in
// per-socket speed — the firmware rewriting Freq and Duty in place, as
// RAPL does every sub-interval — keeps its placement terms and recomputes
// only the speed-dependent ones. Fed through EvalInto into one reused
// Eval, it must stay bit-identical to a fresh one-shot evaluation at every
// step, including across shape changes, invalidations and spinning apps
// whose spin state depends on the clock.
func TestEvaluatorSpeedOnlyRebuildBitIdentical(t *testing.T) {
	p := machine.E52690ThermalServer()
	as := apps(t, 32, "kmeans", "dijkstra", "STREAM")
	cached := NewEvaluator(p, as)
	rng := rand.New(rand.NewSource(33))
	shapes := []machine.Config{
		cfg(p, 8, 2, true, 2, 14),
		cfg(p, 5, 2, false, 1, 9),
		cfg(p, 8, 1, true, 1, 2),
	}
	c := shapes[0].Clone()
	temps := []float64{40, 70}
	var got Eval
	for step := 0; step < 600; step++ {
		switch r := rng.Float64(); {
		case r < 0.05:
			c = shapes[rng.Intn(len(shapes))].Clone()
		case r < 0.08:
			// An affinity change feeds the placement terms: the caller
			// invalidates, and the next rebuild must be a full one.
			as[rng.Intn(len(as))].AffinityCores = rng.Intn(9)
			cached.Invalidate()
		default:
			s := rng.Intn(p.Sockets)
			c.Freq[s] = rng.Intn(p.NumFreqSettings())
			c.Duty[s] = 1
			if rng.Float64() < 0.3 {
				c.Duty[s] = 0.05 + 0.95*rng.Float64()
			}
		}
		now := time.Duration(step) * 5 * time.Millisecond
		cached.EvalInto(&got, c, now, temps)
		want := EvaluateAt(p, c, as, now, temps)
		if !evalEqual(got.Clone(), want) {
			t.Fatalf("step %d (%v): cached eval diverged from fresh\ncached: %+v\nfresh:  %+v", step, c, got, want)
		}
	}
}
