package driver

import (
	"testing"
	"time"

	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/sim"
	"pupil/internal/telemetry"
	"pupil/internal/workload"
)

// dogHarness is a watchdog over a hand-driven world: the test feeds the
// power window and calls Tick at exact instants, so every rung boundary of
// the supervision ladder can be probed tick by tick without running the
// simulation kernel.
type dogHarness struct {
	dog *watchdog
	w   *world
}

func newDogHarness(t *testing.T) *dogHarness {
	t.Helper()
	prof, err := workload.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	apps, err := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 8}})
	if err != nil {
		t.Fatal(err)
	}
	s := Scenario{Platform: machine.E52690Server(), CapWatts: 100, NoNoise: true}
	w := newWorld(s, apps, sim.NewRNG(7))
	runner := sim.NewRunner(w)
	w.clock = runner.Clock
	w.faults.SetClock(w.now)
	dog := newWatchdog(w)
	w.dog = dog
	return &dogHarness{dog: dog, w: w}
}

// feedPower loads the power window with steady readings at watts covering
// [from, to] at the sensor period — enough samples for the filtered mean.
func (h *dogHarness) feedPower(from, to time.Duration, watts float64) {
	win := h.w.powerSensor.Window()
	for ts := from; ts <= to; ts += sensorPeriod {
		win.Add(telemetry.Reading{T: ts, V: watts})
	}
}

func TestWatchdogBreachHoldBoundary(t *testing.T) {
	cases := []struct {
		name string
		// breachFor is how long the sustained breach has lasted when the
		// judged tick fires (relative to the first breaching tick).
		breachFor time.Duration
		want      DegradeLevel
	}{
		{"one period short of hold", breachHold - dogPeriod, DegradeNormal},
		{"exactly at hold", breachHold, DegradeHardwareOnly},
		{"past hold", breachHold + dogPeriod, DegradeHardwareOnly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newDogHarness(t)
			start := startupGrace // first supervised tick
			h.feedPower(0, start+tc.breachFor, h.w.capW*breachFactor*1.1)
			h.dog.onDecision(start) // decision loop is live; only power breaches
			for now := start; now <= start+tc.breachFor; now += dogPeriod {
				h.dog.onDecision(now) // keep the stall path quiet
				h.dog.Tick(now)
			}
			if h.dog.level != tc.want {
				t.Fatalf("breach for %v: level = %v, want %v", tc.breachFor, h.dog.level, tc.want)
			}
		})
	}
}

func TestWatchdogStallBoundary(t *testing.T) {
	cases := []struct {
		name string
		// silentFor is the decision loop's silence when the judged tick
		// fires.
		silentFor time.Duration
		want      DegradeLevel
	}{
		{"one period short of timeout", stallTimeout - dogPeriod, DegradeNormal},
		// The boundary is inclusive: silence of exactly stallTimeout is a
		// stall, mirroring the breach hold's >= judgement.
		{"exactly at timeout", stallTimeout, DegradeHardwareOnly},
		{"past timeout", stallTimeout + dogPeriod, DegradeHardwareOnly},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newDogHarness(t)
			start := startupGrace
			// Healthy power throughout: only staleness can degrade.
			h.feedPower(0, start+tc.silentFor, h.w.capW*0.8)
			h.dog.onDecision(start)
			h.dog.Tick(start + tc.silentFor)
			if h.dog.level != tc.want {
				t.Fatalf("silent for %v: level = %v, want %v", tc.silentFor, h.dog.level, tc.want)
			}
		})
	}
}

func TestWatchdogProbeAndBackoffLadder(t *testing.T) {
	h := newDogHarness(t)
	start := startupGrace

	// Degrade via stall.
	h.feedPower(0, start, h.w.capW*0.8)
	h.dog.onDecision(start)
	degradeAt := start + stallTimeout
	h.feedPower(start, degradeAt, h.w.capW*0.8)
	h.dog.Tick(degradeAt)
	if h.dog.level != DegradeHardwareOnly {
		t.Fatalf("after stall: level = %v", h.dog.level)
	}

	// One tick before the probe delay expires the dog must hold the floor;
	// at expiry it must probe.
	preProbe := degradeAt + probeBackoff - dogPeriod
	h.feedPower(degradeAt, preProbe+probeBackoff, h.w.capW*0.8)
	h.dog.Tick(preProbe)
	if h.dog.level != DegradeHardwareOnly {
		t.Fatalf("before backoff expiry: level = %v", h.dog.level)
	}
	probeAt := degradeAt + probeBackoff
	h.dog.Tick(probeAt)
	if h.dog.level != DegradeProbing {
		t.Fatalf("at backoff expiry: level = %v", h.dog.level)
	}

	// The probe stays silent: exactly stallTimeout later it must fail and
	// double the backoff.
	failAt := probeAt + stallTimeout
	h.feedPower(probeAt, failAt, h.w.capW*0.8)
	h.dog.Tick(failAt - dogPeriod)
	if h.dog.level != DegradeProbing {
		t.Fatalf("one period before probe stall: level = %v", h.dog.level)
	}
	h.dog.Tick(failAt)
	if h.dog.level != DegradeHardwareOnly {
		t.Fatalf("stalled probe: level = %v", h.dog.level)
	}
	if want := 2 * probeBackoff; h.dog.backoff != want {
		t.Fatalf("backoff after failed probe = %v, want %v", h.dog.backoff, want)
	}

	// A healthy probe must recover after exactly recoveryHold.
	probe2 := failAt + h.dog.backoff
	h.feedPower(failAt, probe2+recoveryHold+dogPeriod, h.w.capW*0.8)
	h.dog.Tick(probe2)
	if h.dog.level != DegradeProbing {
		t.Fatalf("second probe: level = %v", h.dog.level)
	}
	// The supervised controller restarts and decides — the probe is live.
	if run, restart := h.dog.allowStep(probe2); !run || !restart {
		t.Fatalf("probe step: run=%v restart=%v", run, restart)
	}
	for now := probe2; now < probe2+recoveryHold; now += dogPeriod {
		h.dog.onDecision(now)
		h.dog.Tick(now)
		if h.dog.level != DegradeProbing {
			t.Fatalf("at %v (hold ends %v): level = %v", now, probe2+recoveryHold, h.dog.level)
		}
	}
	recoverAt := probe2 + recoveryHold
	h.dog.onDecision(recoverAt)
	h.dog.Tick(recoverAt)
	if h.dog.level != DegradeNormal {
		t.Fatalf("after recovery hold: level = %v", h.dog.level)
	}
	if h.dog.backoff != probeBackoff {
		t.Fatalf("backoff not reset: %v", h.dog.backoff)
	}
	if h.dog.capScale != 1 {
		t.Fatalf("cap scale not reset: %v", h.dog.capScale)
	}
}

func TestWatchdogEscalationFloorsCapScale(t *testing.T) {
	h := newDogHarness(t)
	start := startupGrace
	hot := h.w.capW * breachFactor * 1.2

	// Degrade on sustained breach, then keep breaching: every further
	// sustained breach escalates the back-off until the floor.
	h.dog.onDecision(start)
	now := start
	h.feedPower(0, start+200*time.Second, hot)
	deadline := start + 200*time.Second
	for h.dog.level != DegradeBackoff && now < deadline {
		now += dogPeriod
		h.dog.onDecision(now)
		h.dog.Tick(now)
	}
	if h.dog.level != DegradeBackoff {
		t.Fatal("never escalated to cap-backoff")
	}
	for now < deadline {
		now += dogPeriod
		h.dog.onDecision(now)
		h.dog.Tick(now)
	}
	if h.dog.capScale < minCapScale-1e-12 {
		t.Fatalf("cap scale %v fell below floor %v", h.dog.capScale, minCapScale)
	}
	if h.dog.capScale > minCapScale+1e-12 {
		t.Fatalf("cap scale %v never reached floor %v under permanent breach", h.dog.capScale, minCapScale)
	}
	if h.dog.backoff > maxBackoff {
		t.Fatalf("backoff %v exceeds max %v", h.dog.backoff, maxBackoff)
	}
}

func TestWatchdogPanicCounting(t *testing.T) {
	prof, err := workload.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{
		Platform:   machine.E52690Server(),
		Specs:      []workload.Spec{{Profile: prof, Threads: 8}},
		CapWatts:   120,
		Controller: &panicEveryStep{},
		Duration:   4 * time.Second,
		Watchdog:   true,
		NoNoise:    true,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerPanics == 0 {
		t.Fatal("supervised run recorded no controller panics")
	}
	// Missed decisions surface as a stall and the ladder takes over.
	if res.FinalDegradeLevel == DegradeNormal {
		t.Fatalf("final level = %v, want degraded", res.FinalDegradeLevel)
	}
}

// panicEveryStep is a controller whose every decision blows up.
type panicEveryStep struct{}

func (p *panicEveryStep) Name() string          { return "panic-every-step" }
func (p *panicEveryStep) Period() time.Duration { return 500 * time.Millisecond }
func (p *panicEveryStep) Start(core.Env)        {}
func (p *panicEveryStep) Step(core.Env)         { panic("decision framework bug") }
