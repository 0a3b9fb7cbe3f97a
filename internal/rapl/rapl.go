// Package rapl models Intel's Running Average Power Limit firmware, the
// hardware power capping system PUPiL builds on and the paper compares
// against (Section 3.2).
//
// Per socket, the firmware receives a power cap and a time window through a
// machine-specific-register-style interface. It estimates power from event
// counts (modeled as the true power perturbed by a persistent estimation
// bias plus fast noise), computes the energy budget remaining in the
// current window, and every fine-grained sub-interval actuates the fastest
// DVFS operating point predicted to stay within that budget. Below the
// lowest p-state it falls back to duty-cycle (T-state) modulation, which is
// how real RAPL meets caps that no p-state can.
//
// All three firmware steps — observe power, solve for the speed, act on
// DVFS — complete within a sub-interval, giving hardware its millisecond
// timeliness; the firmware never sees performance feedback, which is its
// fundamental limitation.
package rapl

import (
	"math"
	"time"

	"pupil/internal/machine"
	"pupil/internal/sim"
)

// Actuator is the hardware interface the firmware drives: it reads the true
// socket power (the estimator perturbs it) and sets the socket's operating
// point.
type Actuator interface {
	// SocketPower returns the instantaneous power of the socket in Watts.
	SocketPower(socket int) float64
	// SetOperatingPoint sets the socket's p-state index and duty cycle.
	SetOperatingPoint(socket int, freqIdx int, duty float64)
}

// Config tunes firmware behaviour; DefaultConfig matches the reproduction's
// calibrated settling behaviour (~350 ms, Fig. 4).
type Config struct {
	// Window is the user-specified averaging window for the energy
	// budget.
	Window time.Duration
	// SubInterval is the firmware's internal actuation period.
	SubInterval time.Duration
	// EstimatorBias is the persistent relative error of the power model
	// (event-count estimation is systematically off per workload).
	EstimatorBias float64
	// EstimatorNoise is the fast relative noise per estimate.
	EstimatorNoise float64
	// Warmup is the time after a cap write during which the estimator
	// accumulates event statistics before the firmware starts actuating.
	Warmup time.Duration
	// Alpha is the exponent of the firmware's internal power-vs-speed
	// model P ~ f^Alpha used to solve for the next operating point.
	Alpha float64
}

// DefaultConfig returns the firmware configuration used throughout the
// evaluation.
func DefaultConfig() Config {
	return Config{
		Window:         100 * time.Millisecond,
		SubInterval:    5 * time.Millisecond,
		EstimatorBias:  0.01,
		EstimatorNoise: 0.01,
		Warmup:         200 * time.Millisecond,
		Alpha:          2.2,
	}
}

// Firmware is the per-socket RAPL control loop. It implements sim.Ticker.
type Firmware struct {
	plat   *machine.Platform
	socket int
	act    Actuator
	cfg    Config
	rng    *sim.RNG

	capW       float64       // programmed limit; 0 disables capping
	firstCapAt time.Duration // when capping first engaged (estimator warmup anchor)

	// Energy accounting within the current window.
	windowStart time.Duration
	usedJ       float64
	lastTick    time.Duration

	// Seconds conversions hoisted off the sub-interval path: the window
	// (changed only by SetWindow), half the sub-interval, and the last
	// elapsed time between ticks, which is the sub-interval except after a
	// cap write.
	windowS  float64
	halfSubS float64
	dt       time.Duration
	dtS      float64

	// Current operating point.
	freqIdx int
	duty    float64
	started bool

	// rungs decides full-duty retunes without pow; looked up at the first
	// one (see rungTable).
	rungs *rungTable
}

// NewFirmware builds the firmware for one socket. rng must be a dedicated
// stream so estimator noise is reproducible.
func NewFirmware(p *machine.Platform, socket int, act Actuator, cfg Config, rng *sim.RNG) *Firmware {
	return &Firmware{
		plat:     p,
		socket:   socket,
		act:      act,
		cfg:      cfg,
		rng:      rng,
		freqIdx:  p.NumFreqSettings() - 1,
		duty:     1,
		windowS:  cfg.Window.Seconds(),
		halfSubS: cfg.SubInterval.Seconds() / 2,
	}
}

// SetCap programs the socket's power limit, like a write to the
// MSR_PKG_POWER_LIMIT register. A non-positive cap disables capping and
// restores the maximum operating point. Re-programming an engaged firmware
// keeps its estimator state — only the budget window restarts — so a
// controller that redistributes caps does not reopen the throttle.
func (f *Firmware) SetCap(now time.Duration, watts float64) {
	if watts <= 0 {
		f.capW = 0
		f.started = false
		f.freqIdx = f.plat.NumFreqSettings() - 1
		f.duty = 1
		f.act.SetOperatingPoint(f.socket, f.freqIdx, f.duty)
		return
	}
	f.capW = watts
	if !f.started {
		f.firstCapAt = now
		f.started = true
	}
	f.windowStart = now
	f.usedJ = 0
	f.lastTick = now
}

// Cap returns the currently programmed limit (0 when uncapped).
func (f *Firmware) Cap() float64 { return f.capW }

// Window returns the currently programmed averaging window.
func (f *Firmware) Window() time.Duration { return f.cfg.Window }

// SetWindow re-programs the averaging window (the time-window field of the
// limit register), restarting the current budget window. A misprogrammed
// window changes how much burst energy the firmware tolerates before
// clamping; windows below the actuation sub-interval are clamped to it.
func (f *Firmware) SetWindow(now time.Duration, window time.Duration) {
	if window < f.cfg.SubInterval {
		window = f.cfg.SubInterval
	}
	if window == f.cfg.Window {
		return
	}
	f.cfg.Window = window
	f.windowS = window.Seconds()
	f.windowStart = now
	f.usedJ = 0
}

// OperatingPoint returns the firmware's current speed setting and duty.
func (f *Firmware) OperatingPoint() (freqIdx int, duty float64) {
	return f.freqIdx, f.duty
}

// Period implements sim.Ticker.
func (f *Firmware) Period() time.Duration { return f.cfg.SubInterval }

// Tick implements sim.Ticker: one firmware sub-interval.
func (f *Firmware) Tick(now time.Duration) {
	if !f.started || f.capW <= 0 {
		return
	}
	if dt := now - f.lastTick; dt != f.dt {
		f.dt, f.dtS = dt, dt.Seconds()
	}
	f.lastTick = now

	est := f.estimate()
	f.usedJ += est * f.dtS

	// Roll the averaging window.
	if now-f.windowStart >= f.cfg.Window {
		f.windowStart = now
		f.usedJ = 0
	}
	if now-f.firstCapAt < f.cfg.Warmup {
		return
	}

	// Target power for the rest of the window so the window's total
	// energy meets cap*window.
	elapsed := (now - f.windowStart).Seconds()
	remainT := f.windowS - elapsed
	if remainT <= f.halfSubS {
		remainT = f.halfSubS
	}
	budgetJ := f.capW*f.windowS - f.usedJ
	target := budgetJ / remainT
	if target < 0 {
		target = 0
	}
	f.retune(est, target)
	f.act.SetOperatingPoint(f.socket, f.freqIdx, f.duty)
}

// estimate returns the firmware's power estimate for this socket: the true
// power perturbed by the persistent bias and fast noise.
func (f *Firmware) estimate() float64 {
	p := f.act.SocketPower(f.socket)
	p *= 1 + f.cfg.EstimatorBias
	p *= 1 + f.cfg.EstimatorNoise*f.rng.NormFloat64()
	if p < 0 {
		p = 0
	}
	return p
}

// retune solves for the fastest operating point whose predicted power stays
// at or below target, using the internal P ~ f^Alpha model around the
// current estimate.
func (f *Firmware) retune(est, target float64) {
	if est <= 0 {
		// Nothing measurable; open the throttle gently.
		f.stepUp()
		return
	}
	ratio := target / est
	if ratio <= 0 {
		f.freqIdx = 0
		f.duty = 0.05
		return
	}
	// Slew-limit the solve: the internal model is only locally valid, and
	// opening the throttle fully on an idle socket would burst past the
	// budget the instant load arrives. Convergence still takes only a few
	// sub-intervals.
	if ratio > 1.6 {
		ratio = 1.6
	} else if ratio < 0.4 {
		ratio = 0.4
	}
	// From a full-duty rung the table takes the step the solve below would
	// take, without its two pows; it declines the few ratios it cannot
	// decide exactly, and duty modulation always runs the solve.
	if f.duty == 1 {
		if f.rungs == nil {
			f.rungs = tableFor(f.plat, f.cfg.Alpha)
		}
		if j, ok := f.rungs.step(f.freqIdx, ratio, est, target); ok {
			f.freqIdx = j
			return
		}
	}
	cur := f.effectiveSpeed()
	if cur <= 0 {
		cur = f.plat.MinGHz() * 0.05
	}
	// Invert the internal model: f_new = f_cur * ratio^(1/alpha). The
	// socket has a static floor the model cannot remove, so convergence
	// comes from iterating sub-intervals rather than one exact solve.
	want := cur * pow(ratio, 1/f.cfg.Alpha)
	prevIdx, prevDuty := f.freqIdx, f.duty
	f.setSpeed(want)
	// The p-state ladder is discrete: when the solve asks for more speed
	// but maps back onto the current rung (the 2.9 -> 3.8 GHz turbo gap is
	// wider than one slew-limited step), climb one rung — but only if the
	// internal model predicts the rung's power still fits the target,
	// otherwise the firmware would oscillate across the cap forever.
	if f.freqIdx == prevIdx && f.duty == prevDuty && want > f.effectiveSpeed()*1.02 {
		idx, duty := f.freqIdx, f.duty
		f.stepUp()
		predicted := est * pow(f.effectiveSpeed()/cur, f.cfg.Alpha)
		if predicted > target {
			f.freqIdx, f.duty = idx, duty
		}
	}
}

// effectiveSpeed is the current speed in GHz including duty modulation.
func (f *Firmware) effectiveSpeed() float64 {
	return f.plat.FreqAt(f.freqIdx) * f.duty
}

// setSpeed maps a desired effective speed onto the p-state ladder, using
// duty-cycle modulation below the lowest p-state.
func (f *Firmware) setSpeed(ghz float64) {
	min := f.plat.MinGHz()
	if ghz >= min {
		// Highest p-state at or below the desired speed.
		idx := 0
		for i := 0; i < f.plat.NumFreqSettings(); i++ {
			if f.plat.FreqAt(i) <= ghz {
				idx = i
			}
		}
		f.freqIdx = idx
		f.duty = 1
		return
	}
	f.freqIdx = 0
	d := ghz / min
	if d < 0.05 {
		d = 0.05
	}
	f.duty = d
}

// stepUp raises the operating point one notch.
func (f *Firmware) stepUp() {
	if f.duty < 1 {
		f.duty += 0.1
		if f.duty > 1 {
			f.duty = 1
		}
		return
	}
	if f.freqIdx < f.plat.NumFreqSettings()-1 {
		f.freqIdx++
	}
}

func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}
