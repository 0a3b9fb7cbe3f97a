package driver

import (
	"fmt"
	"time"

	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
)

// DegradeLevel is a rung of the supervision ladder.
type DegradeLevel int

// The ladder, from healthy to most defensive.
const (
	// DegradeNormal: the software decision framework is in charge.
	DegradeNormal DegradeLevel = iota
	// DegradeHardwareOnly: the framework is suppressed and the machine
	// runs the maximum configuration under evenly-split RAPL caps — the
	// paper's hardware safety floor.
	DegradeHardwareOnly
	// DegradeBackoff: the floor itself failed to hold (a misprogrammed
	// limit register), so the programmed caps are scaled down until the
	// measured power complies.
	DegradeBackoff
	// DegradeProbing: suppression is lifted to test whether the framework
	// has recovered; failure re-degrades with doubled backoff.
	DegradeProbing
)

// String renders the level for telemetry and tables.
func (l DegradeLevel) String() string {
	switch l {
	case DegradeNormal:
		return "normal"
	case DegradeHardwareOnly:
		return "hardware-only"
	case DegradeBackoff:
		return "cap-backoff"
	case DegradeProbing:
		return "probing"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// DegradeEvent records one supervision transition.
type DegradeEvent struct {
	T        time.Duration
	From, To DegradeLevel
	Reason   string
}

// The supervision layer's settings.
const (
	// dogPeriod is the supervision tick.
	dogPeriod = 100 * time.Millisecond
	// breachWindow is the trailing power-feedback window breaches are
	// judged on.
	breachWindow = time.Second
	// breachFactor scales the cap into the breach threshold (5% over the
	// cap counts as a breach).
	breachFactor float64 = 1.05
	// breachHold is how long a breach must persist before the watchdog
	// acts — transients during re-tuning are not failures.
	breachHold = 1500 * time.Millisecond
	// startupGrace suppresses the watchdog while the run boots (sensor
	// warm-up plus the firmware's initial settling).
	startupGrace = 2 * time.Second
	// stallTimeout declares the decision loop hung when no decision
	// completes for this long. It exceeds the slowest controller period
	// (Soft-DVFS decides every 2 s).
	stallTimeout = 3 * time.Second
	// probeBackoff is the initial delay before probing recovery; each
	// failed probe doubles it up to maxBackoff.
	probeBackoff = 5 * time.Second
	// maxBackoff bounds the probe delay.
	maxBackoff = 40 * time.Second
	// backoffStep scales the programmed caps down on each escalation when
	// the hardware floor itself fails to hold.
	backoffStep float64 = 0.85
	// minCapScale floors the cap back-off.
	minCapScale float64 = 0.4
	// recoveryHold is how long a probe must stay healthy (live decisions,
	// no sustained breach) before the watchdog returns to normal.
	recoveryHold = 3 * time.Second
)

// watchdog supervises a run: it watches the measured power against the cap
// and the decision loop's liveness, degrades to the hardware safety floor
// on sustained breach or stall, escalates to cap back-off when even the
// floor fails to hold, and probes for recovery with exponential backoff.
// It implements sim.Ticker and runs after the controller each tick.
//
// The watchdog deliberately reads the same measured (possibly faulted)
// power sensor the software layer uses: a supervisor with oracle access
// would prove nothing about the design.
type watchdog struct {
	w *world

	level        DegradeLevel
	prevDegraded DegradeLevel // rung to return to on probe failure

	lastDecision time.Duration
	haveDecision bool
	breaching    bool
	breachSince  time.Duration
	breachTicks  int

	backoff      time.Duration
	probeAt      time.Duration
	probeStarted time.Duration
	wantRestart  bool
	capScale     float64
	panics       int

	events []DegradeEvent
}

func newWatchdog(w *world) *watchdog {
	return &watchdog{w: w, backoff: probeBackoff, capScale: 1, prevDegraded: DegradeHardwareOnly}
}

// Period implements sim.Ticker.
func (d *watchdog) Period() time.Duration { return dogPeriod }

// Tick implements sim.Ticker: one supervision decision.
func (d *watchdog) Tick(now time.Duration) {
	if now < startupGrace {
		return
	}
	capW := d.w.capW
	power, n := d.w.powerSensor.Window().FilteredMean(now - breachWindow)
	breach := n >= 3 && power > capW*breachFactor
	if breach {
		d.breachTicks++
		if !d.breaching {
			d.breaching, d.breachSince = true, now
		}
	} else {
		d.breaching = false
	}
	sustained := d.breaching && now-d.breachSince >= breachHold

	switch d.level {
	case DegradeNormal:
		// The stall boundary is inclusive, matching the breach hold: a
		// loop silent for exactly stallTimeout is already stalled.
		if d.haveDecision && now-d.lastDecision >= stallTimeout {
			d.degrade(now, "decision loop stalled")
		} else if sustained {
			d.degrade(now, fmt.Sprintf("sustained breach: %.1f W over %.0f W cap", power, capW))
		}
	case DegradeHardwareOnly, DegradeBackoff:
		if sustained {
			// The hardware floor is not holding: the limit register lies.
			// Fight it by programming less than we want.
			d.escalate(now)
		} else if now >= d.probeAt {
			d.prevDegraded = d.level
			d.transition(now, DegradeProbing, "probing recovery")
			d.wantRestart = true
			d.probeStarted = now
			d.lastDecision = now // staleness measured from the probe start
		}
	case DegradeProbing:
		switch {
		case sustained:
			d.probeFailed(now, "probe failed: cap breached")
		case now-d.lastDecision >= stallTimeout:
			d.probeFailed(now, "probe failed: still stalled")
		case !d.wantRestart && now-d.probeStarted >= recoveryHold:
			d.capScale = 1
			d.backoff = probeBackoff
			d.transition(now, DegradeNormal, "recovered")
		}
	}
}

// degrade drops to the hardware safety floor.
func (d *watchdog) degrade(now time.Duration, reason string) {
	d.transition(now, DegradeHardwareOnly, reason)
	d.wantRestart = false
	d.breaching = false
	d.applyFloor(now)
	d.probeAt = now + d.backoff
}

// escalate backs the programmed caps off another step.
func (d *watchdog) escalate(now time.Duration) {
	d.capScale *= backoffStep
	if d.capScale < minCapScale {
		d.capScale = minCapScale
	}
	d.transition(now, DegradeBackoff,
		fmt.Sprintf("floor breached; caps backed off to %.0f%%", d.capScale*100))
	d.breaching = false
	d.applyFloor(now)
	d.probeAt = now + d.backoff
}

// probeFailed re-degrades and doubles the backoff.
func (d *watchdog) probeFailed(now time.Duration, reason string) {
	d.backoff *= 2
	if d.backoff > maxBackoff {
		d.backoff = maxBackoff
	}
	d.wantRestart = false
	d.breaching = false
	d.transition(now, d.prevDegraded, reason)
	d.applyFloor(now)
	d.probeAt = now + d.backoff
}

// applyFloor programs the hardware safety floor: the maximum configuration
// (what an unmanaged system runs) under evenly-split, possibly backed-off,
// RAPL caps. On platforms without hardware capping only the configuration
// floor applies — there is nothing better to fall back to.
func (d *watchdog) applyFloor(now time.Duration) {
	maxCfg := machine.MaxConfig(d.w.plat)
	if !d.w.softCfg.Equal(maxCfg) {
		d.w.SetConfig(maxCfg)
	}
	if d.w.noRAPL {
		return
	}
	per := make([]float64, d.w.plat.Sockets)
	for s := range per {
		per[s] = d.w.capW * d.capScale / float64(d.w.plat.Sockets)
	}
	d.w.SetRAPL(per)
}

// transition records a level change.
func (d *watchdog) transition(now time.Duration, to DegradeLevel, reason string) {
	if d.level == to {
		return
	}
	d.events = append(d.events, DegradeEvent{T: now, From: d.level, To: to, Reason: reason})
	d.level = to
}

// allowStep gates the supervised controller: suppressed while degraded,
// restarted (fresh Start, not a resumed Step — the framework's internal
// walk state is stale after suppression) on the first step of a probe.
func (d *watchdog) allowStep(now time.Duration) (run, restart bool) {
	switch d.level {
	case DegradeHardwareOnly, DegradeBackoff:
		return false, false
	case DegradeProbing:
		if d.wantRestart {
			d.wantRestart = false
			return true, true
		}
	}
	return true, false
}

// onDecision marks the decision loop live.
func (d *watchdog) onDecision(now time.Duration) {
	d.lastDecision = now
	d.haveDecision = true
}

// onPanic counts a controller panic; the missed decision surfaces as a
// stall and the ladder takes over.
func (d *watchdog) onPanic(now time.Duration, _ any) { d.panics++ }

// eventsCopy returns the transition log.
func (d *watchdog) eventsCopy() []DegradeEvent {
	return append([]DegradeEvent(nil), d.events...)
}

// breachSeconds converts observed breach ticks to seconds.
func (d *watchdog) breachSeconds() float64 {
	return float64(d.breachTicks) * dogPeriod.Seconds()
}

// supervised wraps the real controller with the fault and supervision
// hooks: a stall fault freezes the decision loop; a present watchdog can
// suppress, restart, and panic-protect it. With no faults and no watchdog
// it is a transparent pass-through.
type supervised struct {
	inner core.Controller
	w     *world
	dog   *watchdog
}

// Name implements core.Controller.
func (c *supervised) Name() string { return c.inner.Name() }

// Period implements core.Controller.
func (c *supervised) Period() time.Duration { return c.inner.Period() }

// Start implements core.Controller. Start runs unprotected: a controller
// that cannot boot is a configuration error, not a runtime fault.
func (c *supervised) Start(env core.Env) {
	c.inner.Start(env)
	if c.dog != nil {
		c.dog.onDecision(env.Now())
	}
}

// Step implements core.Controller.
func (c *supervised) Step(env core.Env) {
	now := env.Now()
	if c.w.faults.ControllerStalled(now) {
		return // the decision loop is hung: nothing runs, nothing is recorded
	}
	restart := false
	if c.dog != nil {
		var run bool
		run, restart = c.dog.allowStep(now)
		if !run {
			return
		}
		// With supervision, a panicking decision framework is a runtime
		// fault: swallow it, skip the decision, and let staleness trip the
		// ladder. Without supervision panics propagate as before.
		defer func() {
			if r := recover(); r != nil {
				c.dog.onPanic(now, r)
			}
		}()
	}
	if restart {
		c.inner.Start(env)
	} else {
		c.inner.Step(env)
	}
	if c.dog != nil {
		c.dog.onDecision(now)
	}
}

// faultTicker advances the injector with simulated time and applies
// register-corruption side effects: an onset or repair of a RAPL cap or
// window misprogramming rewrites the affected registers immediately, the
// way real corruption changes behaviour without any software action.
type faultTicker struct{ w *world }

// Period implements sim.Ticker.
func (t *faultTicker) Period() time.Duration { return sensorPeriod }

// Tick implements sim.Ticker.
func (t *faultTicker) Tick(now time.Duration) {
	evs := t.w.faults.Advance(now)
	if len(evs) == 0 {
		return
	}
	for _, ev := range evs {
		switch ev.Scenario.Target {
		case faults.TargetRAPLWindow:
			scale := t.w.faults.WindowScale(now)
			win := time.Duration(float64(t.w.raplWindow) * scale)
			for _, fw := range t.w.firmwares {
				fw.SetWindow(now, win)
			}
		case faults.TargetRAPLCap:
			// Re-program the last requested distribution through the (now
			// active or now repaired) register filter.
			if len(t.w.lastCapReq) > 0 {
				t.w.applyCaps(now, append([]float64(nil), t.w.lastCapReq...))
			}
		}
	}
}
