package faults

import (
	"fmt"
	"time"

	"pupil/internal/machine"
	"pupil/internal/rapl"
	"pupil/internal/sim"
	"pupil/internal/telemetry"
)

// Injector executes a fault profile against one run. It is built once per
// run from the run's RNG, so faulted runs replay exactly; an empty profile
// makes every hook the identity, costing nothing on the happy path.
//
// The injector is not internally synchronized: everything it touches runs
// on the simulation goroutine, and serving layers that schedule faults at
// runtime already serialize against the tick loop.
type Injector struct {
	scenarios []Scenario
	rng       *sim.RNG
	clock     func() time.Duration

	active []bool
	events []Event
	tapN   int
}

// NewInjector builds an injector over a validated profile. The profile is
// copied; rng must be a dedicated stream (fork it from the run's RNG) so
// fault randomness never perturbs the rest of the simulation.
func NewInjector(p Profile, rng *sim.RNG) *Injector {
	return &Injector{
		scenarios: append(Profile(nil), p...),
		rng:       rng,
		active:    make([]bool, len(p)),
	}
}

// SetClock gives the injector a time source for hooks whose call sites have
// no timestamp (the RAPL actuator wrapper). Optional; without it those
// hooks treat time as the last Advance.
func (inj *Injector) SetClock(clock func() time.Duration) { inj.clock = clock }

func (inj *Injector) now() time.Duration {
	if inj.clock != nil {
		return inj.clock()
	}
	if n := len(inj.events); n > 0 {
		return inj.events[n-1].T
	}
	return 0
}

// Schedule validates and appends a scenario at runtime — the hook behind
// the pupild fault-injection API.
func (inj *Injector) Schedule(sc Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.ClusterScoped() {
		return fmt.Errorf("faults: %s: cluster-scoped scenario on a node injector: %w", sc, ErrInvalidScenario)
	}
	inj.scenarios = append(inj.scenarios, sc)
	inj.active = append(inj.active, false)
	return nil
}

// Scenarios returns a copy of the scheduled scenarios.
func (inj *Injector) Scenarios() Profile {
	return append(Profile(nil), inj.scenarios...)
}

// Events returns a copy of the transition log.
func (inj *Injector) Events() []Event {
	return append([]Event(nil), inj.events...)
}

// ActiveCount reports how many scenarios are in effect at time t.
func (inj *Injector) ActiveCount(t time.Duration) int {
	n := 0
	for _, sc := range inj.scenarios {
		if sc.ActiveAt(t) {
			n++
		}
	}
	return n
}

// Advance moves the injector's notion of time forward, recording and
// returning the scenario transitions (onsets and clearances) that occurred.
// Drive it periodically from the simulation so the event log and
// register-corruption side effects track simulated time.
func (inj *Injector) Advance(now time.Duration) []Event {
	var fresh []Event
	for i, sc := range inj.scenarios {
		a := sc.ActiveAt(now)
		if a == inj.active[i] {
			continue
		}
		inj.active[i] = a
		ev := Event{T: now, Scenario: sc, Active: a}
		inj.events = append(inj.events, ev)
		fresh = append(fresh, ev)
	}
	return fresh
}

// firstActive returns the first scheduled scenario of the kind/target in
// effect at t. Profile order is the precedence order for overlapping
// scenarios of the same kind.
func (inj *Injector) firstActive(t time.Duration, kind Kind, target Target) (Scenario, bool) {
	for _, sc := range inj.scenarios {
		if sc.Kind == kind && sc.Target == target && sc.ActiveAt(t) {
			return sc, true
		}
	}
	return Scenario{}, false
}

// ControllerStalled reports whether a stall scenario has the decision
// framework hung at time t.
func (inj *Injector) ControllerStalled(t time.Duration) bool {
	_, ok := inj.firstActive(t, KindStall, TargetController)
	return ok
}

// FilterConfig passes a software actuation request through the active
// config-actuator faults. It returns the configuration that actually takes
// effect, any extra actuation latency, and whether the request survives at
// all — ok=false models a silently ignored request (the call still reports
// success to its caller).
func (inj *Injector) FilterConfig(now time.Duration, cur, want machine.Config) (applied machine.Config, extra time.Duration, ok bool) {
	if _, ignored := inj.firstActive(now, KindIgnore, TargetConfig); ignored {
		return want, 0, false
	}
	applied = want
	if sc, partial := inj.firstActive(now, KindPartial, TargetConfig); partial {
		applied = machine.Blend(cur, want, sc.Magnitude)
	}
	if sc, delayed := inj.firstActive(now, KindDelay, TargetConfig); delayed {
		extra = time.Duration(sc.Magnitude * float64(time.Second))
	}
	return applied, extra, true
}

// FilterRAPLCap passes a per-socket cap write through any active
// register-misprogramming fault: the firmware enforces watts*Magnitude
// instead of watts. Disable writes (non-positive) pass through untouched.
func (inj *Injector) FilterRAPLCap(now time.Duration, watts float64) float64 {
	if watts <= 0 {
		return watts
	}
	if sc, ok := inj.firstActive(now, KindMisprogram, TargetRAPLCap); ok {
		return watts * sc.Magnitude
	}
	return watts
}

// WindowScale returns the active averaging-window misprogramming factor,
// or 1 when the window register is healthy.
func (inj *Injector) WindowScale(now time.Duration) float64 {
	if sc, ok := inj.firstActive(now, KindMisprogram, TargetRAPLWindow); ok {
		return sc.Magnitude
	}
	return 1
}

// tap is the per-sensor fault state behind SensorTap: enough history for
// latency replay and the last healthy value for stuck-at.
//
// A tap given its sensor's window borrows it as its history instead: until
// a sensor fault first acts on the target the tap passes every reading
// through unchanged, so the window holds exactly the readings its own
// history would, and the tap keeps only its last good value. At that first
// onset it copies the window and keeps the copy as its own from then on.
type tap struct {
	inj    *Injector
	target Target
	rng    *sim.RNG

	hist     *telemetry.Window
	borrowed bool
	lastGood float64
	hasGood  bool
}

// histCap bounds tap history; at a 10 ms sampling period it covers ~10 s of
// latency, far beyond any plausible scenario.
const histCap = 1024

// SensorTap returns a telemetry.Tap that applies the injector's sensor
// faults for one target. Each call creates independent per-sensor state
// with its own forked RNG stream, so taps are reproducible regardless of
// how many sensors share a target.
//
// window is the window of the sensor the tap is installed on, before its
// first reading, or nil for a tap without one (the firmware's power
// estimate). A window that holds histCap readings serves as the tap's
// history until a fault first acts; otherwise the tap keeps its own.
func (inj *Injector) SensorTap(target Target, window *telemetry.Window) telemetry.Tap {
	t := &tap{
		inj:    inj,
		target: target,
		rng:    inj.rng.Fork("tap-" + string(target) + "-" + itoa(inj.tapN)),
	}
	if window != nil && window.Cap() == histCap {
		t.hist, t.borrowed = window, true
	} else {
		t.hist = telemetry.NewWindow(histCap)
	}
	inj.tapN++
	return t.apply
}

// sensorFaulted reports whether any scenario is in effect on target at t.
// Only sensor kinds (latency, stuck, spike, dropout) can target a sensor.
func (inj *Injector) sensorFaulted(t time.Duration, target Target) bool {
	for _, sc := range inj.scenarios {
		if sc.Target == target && sc.ActiveAt(t) {
			return true
		}
	}
	return false
}

// apply runs the reading through latency, stuck-at, spike and dropout in
// that order. Faults compose: a stuck sensor that also drops out stays
// silent; a delayed reading can still spike.
func (t *tap) apply(now time.Duration, v float64) (float64, bool) {
	if t.borrowed {
		if !t.inj.sensorFaulted(now, t.target) {
			t.lastGood, t.hasGood = v, true
			return v, true
		}
		// A fault acts from here on: the sensor's window stops mirroring
		// the tap's input, so the tap keeps a copy of its own.
		t.hist, t.borrowed = t.hist.Clone(), false
	}
	t.hist.Add(telemetry.Reading{T: now, V: v})

	if sc, ok := t.inj.firstActive(now, KindLatency, t.target); ok {
		delay := time.Duration(sc.Magnitude * float64(time.Second))
		old, ok := t.hist.At(now - delay)
		if !ok {
			// The delayed reading has not been produced yet: nothing
			// arrives this period.
			return 0, false
		}
		v = old.V
	}
	if _, ok := t.inj.firstActive(now, KindStuck, t.target); ok {
		if !t.hasGood {
			return 0, false // stuck before any reading: dead silence
		}
		v = t.lastGood
	} else {
		t.lastGood, t.hasGood = v, true
	}
	if sc, ok := t.inj.firstActive(now, KindSpike, t.target); ok {
		v *= 1 + sc.Magnitude*t.rng.NormFloat64()
		if v < 0 {
			v = 0
		}
	}
	if sc, ok := t.inj.firstActive(now, KindDropout, t.target); ok {
		if t.rng.Float64() < sc.Magnitude {
			return 0, false
		}
	}
	return v, true
}

// WrapActuator interposes the injector on the firmware's hardware
// interface: rapl-power sensor faults corrupt the power estimate the
// firmware's control loop sees, while operating-point writes pass through
// untouched (they are the hardware's own action, not a software request).
// Per-socket tap state is created eagerly so stream forking stays
// deterministic.
func (inj *Injector) WrapActuator(inner rapl.Actuator, sockets int) rapl.Actuator {
	w := &wrappedActuator{inj: inj, inner: inner, taps: make([]telemetry.Tap, sockets), last: make([]float64, sockets)}
	for s := 0; s < sockets; s++ {
		w.taps[s] = inj.SensorTap(TargetRAPLPower, nil)
	}
	return w
}

type wrappedActuator struct {
	inj   *Injector
	inner rapl.Actuator
	taps  []telemetry.Tap
	last  []float64
}

// SocketPower implements rapl.Actuator. A dropped reading holds the last
// value the firmware saw — a real estimator register keeps its previous
// contents when an update is lost.
func (w *wrappedActuator) SocketPower(socket int) float64 {
	p := w.inner.SocketPower(socket)
	if socket >= len(w.taps) {
		return p
	}
	v, ok := w.taps[socket](w.inj.now(), p)
	if !ok {
		return w.last[socket]
	}
	w.last[socket] = v
	return v
}

// SetOperatingPoint implements rapl.Actuator, passing through.
func (w *wrappedActuator) SetOperatingPoint(socket int, freqIdx int, duty float64) {
	w.inner.SetOperatingPoint(socket, freqIdx, duty)
}

// itoa avoids strconv for the tiny label counter.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
