package driver

import (
	"math"
	"time"
)

// The thermal-headroom governor's settings. The governor is a
// firmware-adjacent control rung that pre-emptively tightens the
// per-socket RAPL cap as the junction temperature approaches TjMax. The
// package's own protection — ThrottleDuty clock modulation — is a blunt
// reactive cliff that chops the clock by more than half once the limit is
// already reached; the governor instead shaves the power budget
// proportionally to the vanishing headroom, holding the junction just
// below the trip point while the capping technique keeps optimizing under
// the tightened budget.
const (
	// govPeriod is the governor's decision cadence.
	govPeriod = 50 * time.Millisecond
	// govHeadroomC is the guard band below TjMax where tightening begins:
	// at TjMax−govHeadroomC the scale is 1, falling linearly to
	// govMinScale as the junction nears TjMax.
	//
	// Narrow on purpose: proportional control droops. The governed
	// equilibrium sits where the scaled cap equals the sustainable power,
	// at T = TjMax − scale·govHeadroomC — so the stranded headroom is
	// proportional to the band width. A 3 C band parks the junction ~2 C
	// below TjMax and gives away enough sustainable Watts that the
	// reactive duty-cycle throttle (whose oscillation straddles TjMax
	// itself) delivers more cycle-average performance. At 1 C the droop
	// shrinks to well under a degree while the discrete loop gain
	// (period/tau)·(1 + Rth·perSocketCap/govHeadroomC) stays below one for
	// any realistic per-socket cap.
	govHeadroomC float64 = 1
	// govReleaseC is the extra cooling below the guard band required
	// before a socket fully disengages (hysteresis against cap flapping).
	govReleaseC float64 = 2
	// govMinScale floors the cap multiplier so a hot socket is squeezed,
	// not starved.
	govMinScale float64 = 0.4
)

// thermalGovernor is the sim.Ticker driving the headroom loop. Each tick
// it recomputes the per-socket cap scale from the live junction
// temperature and re-programs the firmware when any scale or engagement
// latch moved. When no software cap distribution exists (a software-only
// technique, or an uncapped run), the governor owns the registers itself
// with an even split of the node cap, and returns them to zero on full
// release.
type thermalGovernor struct {
	w       *world
	scratch []float64
}

func (g *thermalGovernor) Period() time.Duration { return govPeriod }

func (g *thermalGovernor) Tick(now time.Duration) {
	w := g.w
	th := w.plat.Thermal
	w.govTotalTicks++
	enter := th.TjMaxC - govHeadroomC
	changed := false
	engagedAny := false
	for s := range w.tempC {
		t := w.tempC[s]
		engaged := w.govEngaged[s]
		if !engaged && t >= enter {
			engaged = true
		} else if engaged && t < enter-govReleaseC {
			engaged = false
		}
		scale := 1.0
		if engaged {
			scale = (th.TjMaxC - t) / govHeadroomC
			if scale < govMinScale {
				scale = govMinScale
			}
			if scale > 1 {
				scale = 1
			}
			// Quantize to 1/64 steps so sub-percent temperature jitter
			// does not re-program the cap registers every tick.
			scale = math.Round(scale*64) / 64
			engagedAny = true
		}
		if scale != w.govScale[s] || engaged != w.govEngaged[s] {
			changed = true
		}
		w.govScale[s] = scale
		w.govEngaged[s] = engaged
	}
	if engagedAny {
		w.govTicks++
	}
	if !changed || len(w.firmwares) == 0 {
		return
	}
	if len(w.lastCapReq) > 0 && !w.govOwns {
		// Re-issue the software distribution; applyCaps folds the new
		// scales into every register write.
		w.applyCaps(now, w.lastCapReq)
		return
	}
	if !engagedAny && w.govOwns {
		// Full release of registers the governor programmed itself.
		for _, fw := range w.firmwares {
			fw.SetCap(now, 0)
		}
		w.lastCapReq = w.lastCapReq[:0]
		w.hwOwned = false
		w.govOwns = false
		return
	}
	// No software distribution to scale: own the registers with an even
	// split of the node cap, tightened by the per-socket scales.
	per := w.capW / float64(w.plat.Sockets)
	g.scratch = g.scratch[:0]
	for range w.govScale {
		g.scratch = append(g.scratch, per)
	}
	w.applyCaps(now, g.scratch)
	w.hwOwned = true
	w.govOwns = true
}
