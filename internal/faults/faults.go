// Package faults is the deterministic fault-injection layer of the
// reproduction: seeded, replayable scenarios that make sensors lie,
// actuators stick, RAPL registers hold the wrong values, and decision
// frameworks hang — the misbehavior the paper's hybrid design claims to
// survive (Sections 3 and 7.3) but the happy path never exercises.
//
// A Scenario is a declarative struct (kind, target, onset, duration,
// magnitude); a Profile composes scenarios into a chaos schedule. An
// Injector executes a profile against one run: it hands out sensor taps,
// filters actuation requests and RAPL programming, and answers whether the
// controller is stalled. All randomness flows from a dedicated sim.RNG
// stream, so a faulted run is exactly as reproducible as a clean one and
// safe to evaluate on the concurrent sweep pool.
package faults

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Target names the component a scenario attacks.
type Target string

// Injectable targets.
const (
	// TargetPowerSensor is the machine power monitor the software layer
	// reads (hardware RAPL has its own estimator and is unaffected).
	TargetPowerSensor Target = "power-sensor"
	// TargetPerfSensor is the heartbeat performance feedback the software
	// layer reads.
	TargetPerfSensor Target = "perf-sensor"
	// TargetRAPLPower is the firmware's own power estimate input — faults
	// here blind the hardware loop itself.
	TargetRAPLPower Target = "rapl-power"
	// TargetConfig is the software actuation path: core allocation, socket,
	// hyperthread, memory-controller and DVFS requests.
	TargetConfig Target = "config"
	// TargetRAPLCap is the per-socket power-limit register: misprogramming
	// scales what the firmware is told to enforce.
	TargetRAPLCap Target = "rapl-cap"
	// TargetRAPLWindow is the averaging-window field of the limit register:
	// misprogramming clamps the energy budget to the wrong window.
	TargetRAPLWindow Target = "rapl-window"
	// TargetController is the decision framework's step loop.
	TargetController Target = "controller"
)

// Cluster-scoped targets: the failure surface a fleet coordinator sees.
// These scenarios attack a node's membership in the coordination epoch —
// not any single sensor or actuator inside it — so they are injected
// through a cluster coordinator (per node or per budget domain) and the
// node-level Injector rejects them.
const (
	// TargetNode is the node as a whole: crash, hang, and flapping
	// scenarios stop its session from advancing through coordinator
	// epochs.
	TargetNode Target = "node"
	// TargetDemand is the node's demand report — the mean-power signal
	// the coordinator's policies split budget on.
	TargetDemand Target = "demand-report"
)

// Kind names a failure mode.
type Kind string

// Failure modes.
const (
	// KindDropout loses sensor readings with probability Magnitude.
	KindDropout Kind = "dropout"
	// KindStuck freezes a sensor at its last pre-fault value.
	KindStuck Kind = "stuck"
	// KindSpike adds heavy multiplicative noise of relative magnitude
	// Magnitude to every reading.
	KindSpike Kind = "spike"
	// KindLatency delays sensor readings by Magnitude seconds.
	KindLatency Kind = "latency"
	// KindIgnore silently drops actuation requests (the call reports
	// success; nothing changes).
	KindIgnore Kind = "ignore"
	// KindPartial applies only fraction Magnitude of each requested
	// configuration change.
	KindPartial Kind = "partial"
	// KindDelay adds Magnitude seconds to every actuation latency.
	KindDelay Kind = "delay"
	// KindMisprogram scales the programmed RAPL cap (TargetRAPLCap) or
	// averaging window (TargetRAPLWindow) by Magnitude.
	KindMisprogram Kind = "misprogram"
	// KindStall stops the decision framework from producing configurations
	// for the scenario's duration.
	KindStall Kind = "stall"
)

// Cluster-scoped failure modes (TargetNode / TargetDemand).
const (
	// KindCrash kills the node for the scenario's duration: its session
	// stops advancing and it reports zero demand — the coordinator's view
	// of a kernel panic or a pulled power cord.
	KindCrash Kind = "crash"
	// KindHang wedges the node: the session stops advancing but its last
	// demand report keeps being served, so an adaptive policy keeps
	// feeding watts to a machine doing no work — the stranded-budget
	// failure mode quarantine exists to reclaim.
	KindHang Kind = "hang"
	// KindFlap alternates the node between dead and alive with period
	// Magnitude seconds, starting dead at onset — the crash-looping node
	// that tests quarantine's exponential-backoff re-admission.
	KindFlap Kind = "flap"
	// KindCorrupt scales the node's demand report by factor Magnitude
	// (TargetDemand only): the node itself is healthy, but the signal the
	// budget split runs on lies.
	KindCorrupt Kind = "corrupt"
)

// ErrInvalidScenario reports a scenario that fails validation. Serving
// boundaries match it with errors.Is to map malformed fault requests to
// input errors, mirroring driver.ErrInvalidCap.
var ErrInvalidScenario = errors.New("invalid fault scenario")

// Scenario is one declarative fault: what breaks, when, for how long, and
// how badly. Magnitude's meaning depends on Kind (a probability for
// dropout, seconds for latency and delay, a fraction for partial, a scale
// factor for misprogram; unused for stuck, ignore and stall).
type Scenario struct {
	Kind      Kind
	Target    Target
	Onset     time.Duration
	Duration  time.Duration
	Magnitude float64
}

// ActiveAt reports whether the scenario is in effect at time t.
func (sc Scenario) ActiveAt(t time.Duration) bool {
	return t >= sc.Onset && t < sc.Onset+sc.Duration
}

// String renders the scenario compactly, e.g. "stall/controller @2s for 10s".
func (sc Scenario) String() string {
	s := fmt.Sprintf("%s/%s @%v for %v", sc.Kind, sc.Target, sc.Onset, sc.Duration)
	if sc.Magnitude != 0 {
		s += fmt.Sprintf(" x%g", sc.Magnitude)
	}
	return s
}

// sensorKinds and their valid targets.
var kindTargets = map[Kind][]Target{
	KindDropout:    {TargetPowerSensor, TargetPerfSensor, TargetRAPLPower},
	KindStuck:      {TargetPowerSensor, TargetPerfSensor, TargetRAPLPower},
	KindSpike:      {TargetPowerSensor, TargetPerfSensor, TargetRAPLPower},
	KindLatency:    {TargetPowerSensor, TargetPerfSensor, TargetRAPLPower},
	KindIgnore:     {TargetConfig},
	KindPartial:    {TargetConfig},
	KindDelay:      {TargetConfig},
	KindMisprogram: {TargetRAPLCap, TargetRAPLWindow},
	KindStall:      {TargetController},
	KindCrash:      {TargetNode},
	KindHang:       {TargetNode},
	KindFlap:       {TargetNode},
	KindCorrupt:    {TargetDemand},
}

// Validate rejects malformed scenarios: unknown kinds and targets,
// kind/target mismatches, negative onsets, non-positive durations, and
// magnitudes outside the kind's meaningful range. All errors wrap
// ErrInvalidScenario.
func (sc Scenario) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("faults: %s: %s: %w", sc, fmt.Sprintf(format, args...), ErrInvalidScenario)
	}
	targets, ok := kindTargets[sc.Kind]
	if !ok {
		return bad("unknown kind %q", sc.Kind)
	}
	match := false
	for _, t := range targets {
		if t == sc.Target {
			match = true
		}
	}
	if !match {
		return bad("kind %q cannot target %q", sc.Kind, sc.Target)
	}
	if sc.Onset < 0 {
		return bad("negative onset")
	}
	if sc.Duration <= 0 {
		return bad("non-positive duration")
	}
	if math.IsNaN(sc.Magnitude) || math.IsInf(sc.Magnitude, 0) || sc.Magnitude < 0 {
		return bad("magnitude must be finite and non-negative")
	}
	switch sc.Kind {
	case KindDropout:
		if sc.Magnitude <= 0 || sc.Magnitude > 1 {
			return bad("dropout magnitude is a drop probability in (0, 1]")
		}
	case KindPartial:
		if sc.Magnitude <= 0 || sc.Magnitude >= 1 {
			return bad("partial magnitude is an applied fraction in (0, 1)")
		}
	case KindSpike, KindLatency, KindDelay, KindMisprogram, KindCorrupt:
		if sc.Magnitude <= 0 {
			return bad("%s magnitude must be positive", sc.Kind)
		}
	case KindFlap:
		if sc.Magnitude <= 0 {
			return bad("flap magnitude is an alternation period in seconds and must be positive")
		}
	}
	return nil
}

// ClusterScoped reports whether the scenario targets fleet-level
// coordination (node membership or demand reporting) rather than a single
// machine's sensors and actuators. Cluster-scoped scenarios are injected
// through a cluster coordinator; the node-level Injector rejects them so
// they cannot be scheduled somewhere they would silently do nothing.
func (sc Scenario) ClusterScoped() bool {
	return sc.Target == TargetNode || sc.Target == TargetDemand
}

// Profile is a composable chaos schedule: any number of scenarios, possibly
// overlapping.
type Profile []Scenario

// Validate checks every scenario, reporting the first failure.
func (p Profile) Validate() error {
	for _, sc := range p {
		if err := sc.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ValidateNodeScoped checks every scenario and additionally rejects
// cluster-scoped ones — the validation node-level boundaries (a driver
// scenario, the node fault API) apply so a crash/hang/flap/corrupt
// scenario cannot be scheduled where it would silently do nothing.
func (p Profile) ValidateNodeScoped() error {
	for _, sc := range p {
		if err := sc.Validate(); err != nil {
			return err
		}
		if sc.ClusterScoped() {
			return fmt.Errorf("faults: %s: cluster-scoped scenario on a node: %w", sc, ErrInvalidScenario)
		}
	}
	return nil
}

// Event records one scenario transition (onset or clearance) as observed by
// the injector's clock.
type Event struct {
	T        time.Duration
	Scenario Scenario
	// Active is true at onset and false at clearance.
	Active bool
}
