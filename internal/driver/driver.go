// Package driver wires the substrates into runnable power-capping
// scenarios: it builds the simulated machine, launches the workload,
// attaches telemetry and the per-socket RAPL firmware, steps the controller
// through simulated time, and reports traces and steady-state metrics.
//
// This is the reproduction's equivalent of the paper's test harness: the
// scripts that launch a benchmark under a power cap, record power and
// performance over time, and compute settling time and steady-state
// efficiency.
package driver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/metrics"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/telemetry"
	"pupil/internal/workload"
)

// ErrInvalidCap reports a power cap that is not a positive, finite number.
// Callers at serving boundaries match it with errors.Is to map nonsense
// caps to input errors instead of letting them flow into the RAPL model.
var ErrInvalidCap = errors.New("invalid power cap")

// ValidateCap rejects non-positive, NaN, and infinite power caps with an
// error wrapping ErrInvalidCap.
func ValidateCap(watts float64) error {
	if math.IsNaN(watts) || math.IsInf(watts, 0) || watts <= 0 {
		return fmt.Errorf("driver: cap %g W: %w (must be positive and finite)", watts, ErrInvalidCap)
	}
	return nil
}

// Sampling and evaluation cadence of the harness.
const (
	sensorPeriod = 10 * time.Millisecond
	evalPeriod   = 10 * time.Millisecond
	// steadyTail is the fraction of the run used for steady-state
	// averages.
	steadyTail = 0.15
)

// Scenario describes one capped run.
type Scenario struct {
	Platform   *machine.Platform
	Specs      []workload.Spec
	CapWatts   float64
	Controller core.Controller
	Duration   time.Duration
	Seed       uint64
	// PerfWeights normalizes each app's contribution to the aggregate
	// performance feedback (typically isolated rates, making the signal
	// a weighted speedup). Empty means unweighted sum.
	PerfWeights []float64
	// NoNoise disables sensor noise, for deterministic unit tests.
	NoNoise bool
	// RawFeedback (ablation) bypasses the 3-sigma deviation filter of
	// Section 3.1.1 and hands controllers plain window means.
	RawFeedback bool
	// PerfNoise overrides the performance sensor's noise model when
	// non-nil (used by the filter ablation to inject heavier outliers).
	PerfNoise *telemetry.NoiseSpec
	// NoRAPL marks the platform as lacking hardware capping support.
	NoRAPL bool
	// Faults is the deterministic fault profile injected into the run
	// (empty means a healthy machine; every hook is then the identity).
	Faults faults.Profile
	// Watchdog, when non-nil, enables the supervision layer: sustained cap
	// breach or a stalled decision loop degrades the run to hardware-only
	// capping, with exponential-backoff recovery probes. Zero fields take
	// defaults.
	Watchdog *WatchdogConfig
	// ThermalGovernor, when non-nil, enables the thermal-headroom
	// governor: the RAPL cap is pre-emptively tightened as the junction
	// approaches TjMax instead of waiting for the package protection's
	// duty-cycle cliff. Requires a thermal platform and hardware capping
	// support (silently inert otherwise). Zero fields take defaults.
	ThermalGovernor *ThermalGovernorConfig
}

// Result is the outcome of a run.
type Result struct {
	// PowerTrace and PerfTrace are the measured (noisy) sensor traces.
	PowerTrace *sim.Series
	PerfTrace  *sim.Series
	// TruePower is the ground-truth power trace used for settling-time
	// detection (the paper filters measurement noise before analysis).
	TruePower *sim.Series

	// Settling is the time to stably enforce the cap (Equation 5);
	// Settled is false when the run never stabilized under the cap.
	Settling time.Duration
	Settled  bool
	// PerfConvergence is when delivered performance stabilized at its
	// converged level — the efficiency half of the timeliness/efficiency
	// tradeoff (software explores for tens of seconds after the cap is
	// already enforced).
	PerfConvergence time.Duration
	PerfConverged   bool

	// SteadyRates and SteadyPower average the tail of the run.
	SteadyRates []float64
	SteadyPower float64
	// FinalEval is a ground-truth snapshot at the end of the run (spin
	// cycles, bandwidth, GIPS — the VTune-style counters of Table 6).
	FinalEval system.Eval
	// EnergyJ is total energy over the run.
	EnergyJ float64
	// ViolationFrac is the fraction of true-power samples above
	// cap*1.03 after the first second (Soft-Modeling's failure mode).
	ViolationFrac float64
	// FinalConfig is the software configuration at the end of the run.
	FinalConfig machine.Config
	// ConfigLog records software configurations as they took effect, for
	// inspecting a controller's decision sequence. Both logs keep the most
	// recent events (bounded; only a perpetual session ever truncates).
	ConfigLog []ConfigEvent
	// OpLog records firmware operating-point changes (coalesced).
	OpLog []OpEvent
	// SpinTrace and BWTrace are ground-truth counter traces (spin-cycle
	// fraction and achieved memory bandwidth over time) — the VTune-style
	// observability behind Table 6.
	SpinTrace *sim.Series
	BWTrace   *sim.Series
	// MaxTempC and ThermalThrottleFrac report the package thermal model:
	// the hottest junction temperature seen and the fraction of the run
	// spent thermally throttled (zero on platforms without the model).
	MaxTempC            float64
	ThermalThrottleFrac float64
	// ThermalGovernedFrac is the fraction of the run the thermal-headroom
	// governor spent engaged on at least one socket (zero without a
	// governor); FinalTempsC are the per-socket junction temperatures at
	// the end of the run (nil without a thermal model).
	ThermalGovernedFrac float64
	FinalTempsC         []float64
	// BreachSeconds is the wall-clock time the (400 ms-smoothed) true power
	// spent above cap*1.03 after the 1 s grace period — ViolationFrac
	// integrated into seconds.
	BreachSeconds float64
	// FaultEvents logs every fault onset and clearance observed by the run.
	FaultEvents []faults.Event
	// Degradations logs supervision transitions and FinalDegradeLevel is
	// the ladder rung at the end of the run (both empty/zero without a
	// watchdog).
	Degradations      []DegradeEvent
	FinalDegradeLevel DegradeLevel
	// ControllerPanics counts decision-framework panics swallowed by the
	// supervision layer.
	ControllerPanics int
}

// SteadyTotal sums the steady per-app rates.
func (r Result) SteadyTotal() float64 {
	t := 0.0
	for _, v := range r.SteadyRates {
		t += v
	}
	return t
}

// WeightedSpeedup computes the steady weighted speedup against isolated
// rates.
func (r Result) WeightedSpeedup(alone []float64) float64 {
	return metrics.WeightedSpeedup(r.SteadyRates, alone)
}

// Efficiency returns steady performance (weighted if alone is non-nil) per
// Watt.
func (r Result) Efficiency(alone []float64) float64 {
	perf := r.SteadyTotal()
	if alone != nil {
		perf = r.WeightedSpeedup(alone)
	}
	return metrics.Efficiency(perf, r.SteadyPower)
}

// Run executes the scenario and returns its result.
func Run(s Scenario) (Result, error) {
	return RunContext(context.Background(), s)
}

// RunContext executes the scenario, aborting mid-simulation as soon as ctx
// is cancelled. On cancellation the partial run's state is discarded and the
// context's error is returned (matchable with errors.Is against
// context.Canceled or context.DeadlineExceeded).
func RunContext(ctx context.Context, s Scenario) (Result, error) {
	if s.Duration <= 0 {
		s.Duration = 60 * time.Second
	}
	w, runner, err := buildWorld(s)
	if err != nil {
		return Result{}, err
	}

	// Initial physics so the controller's Start observes a live system.
	w.growTraces(s.Duration)
	w.refresh(0)
	w.ctrl.Start(w)
	if err := runner.RunContext(ctx, s.Duration); err != nil {
		return Result{}, fmt.Errorf("driver: run aborted at t=%v: %w", runner.Clock.Now(), err)
	}

	return w.result(s), nil
}

// buildWorld validates the scenario and assembles the simulated node, the
// tick schedule, and the supervision chain shared by Run and Session. The
// fault ticker observes time first (fault transitions precede everything
// they corrupt within a tick); the watchdog observes last, after the
// controller it supervises.
func buildWorld(s Scenario) (*world, *sim.Runner, error) {
	if s.Platform == nil {
		return nil, nil, errors.New("driver: scenario has no platform")
	}
	if err := s.Platform.Validate(); err != nil {
		return nil, nil, err
	}
	if err := ValidateCap(s.CapWatts); err != nil {
		return nil, nil, err
	}
	if s.Controller == nil {
		return nil, nil, errors.New("driver: scenario has no controller")
	}
	if err := s.Faults.ValidateNodeScoped(); err != nil {
		return nil, nil, err
	}
	apps, err := workload.NewInstances(s.Specs)
	if err != nil {
		return nil, nil, err
	}
	if len(apps) == 0 {
		return nil, nil, errors.New("driver: scenario has no applications")
	}
	if len(s.PerfWeights) != 0 && len(s.PerfWeights) != len(apps) {
		return nil, nil, fmt.Errorf("driver: %d perf weights for %d apps", len(s.PerfWeights), len(apps))
	}

	rng := sim.NewRNG(s.Seed)
	w := newWorld(s, apps, rng)
	runner := sim.NewRunner(w)
	w.clock = runner.Clock
	w.faults.SetClock(w.now)

	sup := &supervised{inner: s.Controller, w: w}
	if s.Watchdog != nil {
		w.dog = newWatchdog(w, s.Watchdog.withDefaults())
		sup.dog = w.dog
	}
	w.ctrl = sup

	// Registration order is tick order: sensors observe before firmware
	// and controller act. The schedule is registered in one call, so the
	// runner sizes it once.
	tickers := make([]sim.Ticker, 0, 16)
	tickers = append(tickers, &faultTicker{w: w}, w.powerSensor, w.perfSensor)
	for _, sns := range w.appSensors {
		tickers = append(tickers, sns)
	}
	for _, fw := range w.firmwares {
		tickers = append(tickers, fw)
	}
	// The thermal-headroom governor sits between the firmware and the
	// controller: a firmware-adjacent protection rung that tightens the
	// cap registers before the technique's next decision reads them.
	if s.ThermalGovernor != nil && s.Platform.Thermal != nil && !s.NoRAPL {
		w.govScale = make([]float64, s.Platform.Sockets)
		w.govEngaged = make([]bool, s.Platform.Sockets)
		for i := range w.govScale {
			w.govScale[i] = 1
		}
		tickers = append(tickers, &thermalGovernor{
			w:       w,
			cfg:     s.ThermalGovernor.withDefaults(),
			scratch: make([]float64, 0, s.Platform.Sockets),
		})
	}
	tickers = append(tickers, &controllerTicker{w: w, c: w.ctrl})
	if w.dog != nil {
		tickers = append(tickers, w.dog)
	}
	runner.Register(tickers...)
	return w, runner, nil
}

// controllerTicker adapts a core.Controller to the simulation kernel.
type controllerTicker struct {
	w *world
	c core.Controller
}

func (t *controllerTicker) Period() time.Duration  { return t.c.Period() }
func (t *controllerTicker) Tick(now time.Duration) { t.c.Step(t.w) }
