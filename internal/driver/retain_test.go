package driver

import (
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/sim"
)

// retainScenario is a twin-able session: every call builds a fresh
// controller, so two sessions from the same seed run the same simulation.
// Odd seeds run hardware-only capping (firmware operating-point events),
// even ones PUPiL on two applications (configuration events, a second
// rate trace).
func retainScenario(t *testing.T, seed uint64) Scenario {
	p := machine.E52690Server()
	if seed%2 == 1 {
		return Scenario{Platform: p, Specs: specs(t, 32, "blackscholes"), CapWatts: 110,
			Controller: control.NewRAPLOnly(), Seed: seed}
	}
	return Scenario{Platform: p, Specs: specs(t, 16, "x264", "STREAM"), CapWatts: 140,
		Controller: core.NewPUPiL(core.DefaultOrdered(p)), Seed: seed}
}

// TestRetainBitIdentical is the retention property: over seeded random
// sequences of advances (shorter than, equal to and longer than the
// retention), retention raises and trailing windows no longer than what
// the retention covers, a retained session answers MeanPower and MeanRate
// exactly (==) as its unretained twin does, and keeps its traces and logs
// bounded while doing so.
func TestRetainBitIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		full, err := NewSession(retainScenario(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		kept, err := NewSession(retainScenario(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(seed)
		// ms draws a duration of lo..hi milliseconds. The first two seeds
		// round every duration to the sensor period, so reads end on a
		// sample and windows start exactly on one: the edge a retention off
		// by one sample would lose.
		ms := func(lo, hi int) time.Duration {
			d := time.Duration(lo+rng.Intn(hi-lo+1)) * time.Millisecond
			if seed <= 2 {
				d = max(sensorPeriod, d/sensorPeriod*sensorPeriod)
			}
			return d
		}
		keep := ms(10, 300)
		kept.Retain(keep)
		// valid is the longest window the retained session can answer: a
		// raised retention covers only what was simulated since the raise
		// on top of the old window.
		valid := time.Duration(0)
		for step := 0; step < 60; step++ {
			if rng.Float64() < 0.15 {
				keep += ms(10, 500)
				kept.Retain(keep)
			}
			var d time.Duration
			switch rng.Intn(3) {
			case 0:
				d = ms(1, int(keep/time.Millisecond))
			case 1:
				d = keep
			default:
				d = keep + ms(1, 2000)
			}
			full.Advance(d)
			kept.Advance(d)
			valid = min(keep, valid+d)
			for _, w := range []time.Duration{sensorPeriod, ms(1, int(valid/time.Millisecond)), valid} {
				if a, b := full.MeanPower(w), kept.MeanPower(w); a != b {
					t.Fatalf("seed %d step %d (keep %v, advance %v): MeanPower(%v) retained %v, unretained %v",
						seed, step, keep, d, w, b, a)
				}
				if a, b := full.MeanRate(w), kept.MeanRate(w); a != b {
					t.Fatalf("seed %d step %d (keep %v, advance %v): MeanRate(%v) retained %v, unretained %v",
						seed, step, keep, d, w, b, a)
				}
			}
		}
		// Retention bounds every trace to about twice its window (plus
		// append's rounding) and every log to its events of the window.
		bound := 4*int(keep/sensorPeriod) + 64
		kept.w.eachTrace(func(tr *sim.Series) {
			if cap(tr.Samples) > bound {
				t.Errorf("seed %d: trace %s holds %d samples of capacity for a %v window", seed, tr.Name, cap(tr.Samples), keep)
			}
		})
		if n := full.w.truePower.Len(); n <= bound {
			t.Errorf("seed %d: the unretained twin kept only %d samples; the sequence never outgrew the window", seed, n)
		}
		if kn, fn := len(kept.w.opLog)+len(kept.w.configLog), len(full.w.opLog)+len(full.w.configLog); kn > fn || (fn > 64 && kn == fn) {
			t.Errorf("seed %d: retained logs hold %d events, unretained %d", seed, kn, fn)
		}
	}
}
