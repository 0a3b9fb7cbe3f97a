// Package sim provides the deterministic discrete-time simulation kernel
// used by the PUPiL reproduction: a simulated clock, a seeded random number
// generator, time-series recording, and a run loop that advances the world
// and fires periodic tickers (telemetry samplers, RAPL firmware, controllers)
// in a fixed, reproducible order.
//
// Nothing in this package knows about machines or workloads; it only knows
// about time. All randomness in an experiment must flow from a sim.RNG so
// that every run is reproducible from its seed.
package sim

import (
	"fmt"
	"time"
)

// Tick is the base physics resolution of the simulation. Every event in the
// kernel happens on a multiple of Tick; ticker periods are rounded up to it.
const Tick = time.Millisecond

// Clock tracks simulated time. The zero Clock starts at t=0.
type Clock struct {
	now time.Duration
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves simulated time forward by dt. It panics on negative dt,
// which always indicates a kernel bug rather than a recoverable condition.
func (c *Clock) Advance(dt time.Duration) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative duration %v", dt))
	}
	c.now += dt
}

// Seconds converts a simulated duration to floating-point seconds. It is the
// single conversion point between the kernel's time.Duration domain and the
// physics models' float64 domain.
func Seconds(d time.Duration) float64 { return d.Seconds() }
