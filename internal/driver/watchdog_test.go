package driver

import (
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
)

func TestDegradeLevelString(t *testing.T) {
	want := map[DegradeLevel]string{
		DegradeNormal:       "normal",
		DegradeHardwareOnly: "hardware-only",
		DegradeBackoff:      "cap-backoff",
		DegradeProbing:      "probing",
	}
	for lvl, s := range want {
		if lvl.String() != s {
			t.Errorf("DegradeLevel(%d).String() = %q, want %q", lvl, lvl.String(), s)
		}
	}
}

// stallScenario builds a PUPiL run whose decision loop hangs at stallAt for
// stallFor (the rest of the scenario matches the chaos experiment shape).
func stallScenario(t *testing.T, dur, stallAt, stallFor time.Duration, dog bool) Scenario {
	t.Helper()
	p := machine.E52690Server()
	return Scenario{
		Platform:   p,
		Specs:      specs(t, 32, "blackscholes"),
		CapWatts:   140,
		Controller: core.NewPUPiL(core.DefaultOrdered(p)),
		Duration:   dur,
		Seed:       7,
		Faults: faults.Profile{{
			Kind: faults.KindStall, Target: faults.TargetController,
			Onset: stallAt, Duration: stallFor, Magnitude: 1,
		}},
		Watchdog: dog,
	}
}

// TestWatchdogRescuesStalledWalk: a walk frozen mid-exploration leaves the
// machine far below its potential; the watchdog must notice the stall,
// degrade to the hardware-only floor, and recover the lost throughput —
// without letting power breach the cap.
func TestWatchdogRescuesStalledWalk(t *testing.T) {
	stalled, err := Run(stallScenario(t, 20*time.Second, 2*time.Second, 10*time.Minute, false))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := Run(stallScenario(t, 20*time.Second, 2*time.Second, 10*time.Minute, true))
	if err != nil {
		t.Fatal(err)
	}

	if len(guarded.Degradations) == 0 {
		t.Fatal("watchdog recorded no transitions for a permanently stalled controller")
	}
	first := guarded.Degradations[0]
	if first.To != DegradeHardwareOnly {
		t.Errorf("first transition went to %v, want hardware-only", first.To)
	}
	if first.From != DegradeNormal {
		t.Errorf("first transition came from %v, want normal", first.From)
	}
	if guarded.SteadyTotal() <= stalled.SteadyTotal() {
		t.Errorf("watchdog floor perf %.2f should beat the stalled walk's %.2f",
			guarded.SteadyTotal(), stalled.SteadyTotal())
	}
	if guarded.BreachSeconds > 0.5 {
		t.Errorf("degraded run breached for %.2f s; the hardware floor must hold the cap", guarded.BreachSeconds)
	}
}

// TestWatchdogRecoversAfterTransientStall: once the stall clears, a probe
// must succeed and return the supervision ladder to normal.
func TestWatchdogRecoversAfterTransientStall(t *testing.T) {
	res, err := Run(stallScenario(t, 30*time.Second, 2*time.Second, 4*time.Second, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDegradeLevel != DegradeNormal {
		t.Fatalf("final level %v after the fault cleared, want normal (events: %v)",
			res.FinalDegradeLevel, res.Degradations)
	}
	recovered := false
	for _, ev := range res.Degradations {
		if ev.To == DegradeNormal && ev.From == DegradeProbing {
			recovered = true
		}
	}
	if !recovered {
		t.Errorf("no probing->normal recovery among %v", res.Degradations)
	}
}

// TestWatchdogQuietOnHealthyRun: supervision must not fire on a well-behaved
// controller.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	p := machine.E52690Server()
	res, err := Run(Scenario{
		Platform:   p,
		Specs:      specs(t, 32, "jacobi"),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
		Duration:   10 * time.Second,
		Seed:       7,
		Watchdog:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degradations) != 0 || res.FinalDegradeLevel != DegradeNormal {
		t.Errorf("healthy run: %d transitions, final %v", len(res.Degradations), res.FinalDegradeLevel)
	}
}

// panicController blows up on its Nth step.
type panicController struct {
	inner core.Controller
	at    int
	steps int
}

func (c *panicController) Name() string          { return c.inner.Name() }
func (c *panicController) Period() time.Duration { return c.inner.Period() }
func (c *panicController) Start(env core.Env)    { c.inner.Start(env) }
func (c *panicController) Step(env core.Env) {
	c.steps++
	if c.steps == c.at {
		panic("controller bug")
	}
	c.inner.Step(env)
}

// TestSupervisedSwallowsPanics: with the watchdog armed a controller panic
// is contained and counted; without it, the panic propagates (the driver
// refuses to hide bugs when nobody is supervising).
func TestSupervisedSwallowsPanics(t *testing.T) {
	p := machine.E52690Server()
	base := Scenario{
		Platform: p,
		Specs:    specs(t, 32, "jacobi"),
		CapWatts: 140,
		Duration: 5 * time.Second,
		Seed:     7,
	}

	guarded := base
	guarded.Controller = &panicController{inner: control.NewRAPLOnly(), at: 3}
	guarded.Watchdog = true
	res, err := Run(guarded)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerPanics != 1 {
		t.Errorf("ControllerPanics = %d, want 1", res.ControllerPanics)
	}

	bare := base
	bare.Controller = &panicController{inner: control.NewRAPLOnly(), at: 3}
	defer func() {
		if recover() == nil {
			t.Error("unsupervised controller panic did not propagate")
		}
	}()
	_, _ = Run(bare)
}
