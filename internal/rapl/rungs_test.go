package rapl

import (
	"math"
	"sync"
	"testing"

	"pupil/internal/machine"
	"pupil/internal/sim"
)

// referenceRetune is retune as it was before the rung table: the solve and
// the climb computed with pow on every call. TestRetuneTableMatchesReference
// holds the table to it.
func referenceRetune(f *Firmware, est, target float64) {
	cur := f.effectiveSpeed()
	if cur <= 0 {
		cur = f.plat.MinGHz() * 0.05
	}
	if est <= 0 {
		f.stepUp()
		return
	}
	ratio := target / est
	if ratio <= 0 {
		f.freqIdx = 0
		f.duty = 0.05
		return
	}
	if ratio > 1.6 {
		ratio = 1.6
	} else if ratio < 0.4 {
		ratio = 0.4
	}
	want := cur * pow(ratio, 1/f.cfg.Alpha)
	prevIdx, prevDuty := f.freqIdx, f.duty
	f.setSpeed(want)
	if f.freqIdx == prevIdx && f.duty == prevDuty && want > f.effectiveSpeed()*1.02 {
		idx, duty := f.freqIdx, f.duty
		f.stepUp()
		predicted := est * pow(f.effectiveSpeed()/cur, f.cfg.Alpha)
		if predicted > target {
			f.freqIdx, f.duty = idx, duty
		}
	}
}

// ladder returns a bare platform carrying only a DVFS ladder, which is all
// the firmware reads of it.
func ladder(turbo float64, freqs ...float64) *machine.Platform {
	return &machine.Platform{Name: "ladder", FreqsGHz: freqs, TurboGHz: turbo}
}

type tableCase struct {
	name     string
	plat     *machine.Platform
	alpha    float64
	tabulate bool // whether the table may decide at all
}

func tableCases() []tableCase {
	return []tableCase{
		{"server", machine.E52690Server(), 2.2, true},
		{"thermal", machine.E52690ThermalServer(), 2.2, true},
		{"soc", machine.MobileSoC(), 2.2, true},
		// No turbo, uneven steps, and a 1% step the 2% climb threshold
		// overshoots.
		{"no-turbo", ladder(0, 0.8, 1.0, 1.3, 1.5, 1.515, 2.0, 2.6), 2.2, true},
		{"server-alpha3", machine.E52690Server(), 3, true},
		{"soc-alpha1.4", machine.MobileSoC(), 1.4, true},
		{"repeated-rung", ladder(2.4, 1.0, 1.2, 1.2, 1.6, 2.0), 2.2, false},
		{"alpha-beyond-margin", machine.E52690Server(), 150, false},
	}
}

// twinCheck runs retune and referenceRetune from the same operating point
// and counts a mismatch unless both land on the same rung and bit-identical
// duty.
type twinCheck struct {
	t                  *testing.T
	tc                 tableCase
	tab, ref           *Firmware
	checks, mismatches int
}

func newTwinCheck(t *testing.T, tc tableCase) *twinCheck {
	cfg := DefaultConfig()
	cfg.Alpha = tc.alpha
	return &twinCheck{
		t:   t,
		tc:  tc,
		tab: NewFirmware(tc.plat, 0, nil, cfg, sim.NewRNG(1)),
		ref: NewFirmware(tc.plat, 0, nil, cfg, sim.NewRNG(1)),
	}
}

func (c *twinCheck) run(idx int, duty, est, target float64) {
	c.tab.freqIdx, c.tab.duty = idx, duty
	c.ref.freqIdx, c.ref.duty = idx, duty
	c.tab.retune(est, target)
	referenceRetune(c.ref, est, target)
	c.checks++
	if c.tab.freqIdx != c.ref.freqIdx || math.Float64bits(c.tab.duty) != math.Float64bits(c.ref.duty) {
		c.mismatches++
		if c.mismatches <= 5 {
			c.t.Errorf("%s: from rung %d duty %v, est %v target %v: table gave (%d, %v), reference (%d, %v)",
				c.tc.name, idx, duty, est, target, c.tab.freqIdx, c.tab.duty, c.ref.freqIdx, c.ref.duty)
		}
	}
}

// boundaries lists, for rung i, every ratio at which the reference's
// decision flips: where want reaches each rung j and where it passes the
// climb threshold, computed as the reference computes want's thresholds.
func boundaries(p *machine.Platform, alpha float64, i int) []float64 {
	fi := p.FreqAt(i)
	bs := []float64{pow(fi*1.02/fi, alpha)}
	for j := 0; j < p.NumFreqSettings(); j++ {
		bs = append(bs, pow(p.FreqAt(j)/fi, alpha))
	}
	return bs
}

// TestRetuneTableMatchesReference drives twin firmwares, one retuning
// through the rung table and one through the reference, from identical
// states, and requires the same rung and the same duty bits every time:
// at and around every boundary the table holds (stepped by ulps and by
// multiples of its margin), at random estimates and targets on every
// rung, and on the inputs the table must leave to the reference.
func TestRetuneTableMatchesReference(t *testing.T) {
	ests := []float64{1, 0.37, 7.3, 61.8, 133.1}
	for _, tc := range tableCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := newTwinCheck(t, tc)
			n := tc.plat.NumFreqSettings()
			rng := sim.NewRNG(uint64(n)*7919 + uint64(tc.alpha*1000))
			tbl := tableFor(tc.plat, tc.alpha)
			decided, onRung := 0, 0
			for i := 0; i < n; i++ {
				// (a) At, and stepped around, each boundary.
				for _, b := range boundaries(tc.plat, tc.alpha, i) {
					var ratios []float64
					for _, m := range []float64{1, 1 - tableEps, 1 + tableEps, 1 - 2*tableEps, 1 + 2*tableEps, 1 - tableEps/2, 1 + tableEps/2} {
						ratios = append(ratios, b*m)
					}
					up, down := b, b
					for k := 1; k <= 50; k++ {
						up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
						ratios = append(ratios, up, down)
					}
					for _, est := range ests {
						for _, r := range ratios {
							c.run(i, 1, est, r*est)
						}
					}
				}
				// (b) Random estimates and targets, the ratio spanning
				// both slew limits.
				for k := 0; k < 10000; k++ {
					est := 5 * math.Exp(rng.Float64()*math.Log(40))
					target := est * 0.3 * math.Exp(rng.Float64()*math.Log(6))
					c.run(i, 1, est, target)
					if c.ref.duty == 1 {
						onRung++
					}
					if _, ok := tbl.step(i, math.Max(0.4, math.Min(1.6, target/est)), est, target); ok {
						decided++
					}
				}
				// (c) Inputs the table must leave alone.
				for _, duty := range []float64{0.05, 0.35, 0.9, math.Nextafter(1, 0)} {
					for _, ratio := range []float64{0.4, 0.9, 1.05, 1.6} {
						c.run(i, duty, 50, ratio*50)
					}
				}
				for _, est := range []float64{0, -3, math.NaN(), math.Inf(1)} {
					c.run(i, 1, est, 40)
				}
				c.run(i, 1, 40, 0)
				c.run(i, 1, 40, math.NaN())
				c.run(i, 1, 40, math.Inf(1))
				c.run(i, 1, math.Inf(1), math.Inf(1))
			}
			// Only a want below the lowest rung leaves full duty, and the
			// table leaves exactly those to the reference, so it must
			// decide all the rest but the rare ratio inside a band.
			t.Logf("%d checks, %d mismatches; the table decided %d of the %d random retunes that stayed at full duty",
				c.checks, c.mismatches, decided, onRung)
			if tc.tabulate && decided*1000 < onRung*999 {
				t.Errorf("the table decided only %d of %d random retunes that stayed at full duty", decided, onRung)
			}
			if !tc.tabulate && decided != 0 {
				t.Errorf("built a table for %s, which the margin argument does not cover", tc.name)
			}
		})
	}
}

// TestRungTableShared checks that firmwares on one ladder and alpha share
// one table, also when they first retune concurrently, and that a
// different alpha gets its own.
func TestRungTableShared(t *testing.T) {
	p := machine.MobileSoC()
	const workers = 8
	got := make([]*rungTable, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = tableFor(machine.MobileSoC(), 2.2)
		}(w)
	}
	wg.Wait()
	for w, tbl := range got {
		if tbl != got[0] {
			t.Fatalf("worker %d got table %p, worker 0 %p", w, tbl, got[0])
		}
	}
	if tableFor(p, 2.5) == got[0] {
		t.Fatal("alpha 2.5 shares alpha 2.2's table")
	}
}
