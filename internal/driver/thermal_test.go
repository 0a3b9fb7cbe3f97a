package driver

import (
	"math"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/machine"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// Regression for the forward-Euler divergence: at dt = 10·Rth·Cth the old
// update's homogeneous multiplier was 1 − dt/τ = −9, so temperatures
// oscillated with exploding amplitude. The exact exponential step must
// converge monotonically to steady state from either side at any tick
// length.
func TestStepThermalExactExponentialConvergence(t *testing.T) {
	plat := machine.MobileSoC()
	th := plat.Thermal
	tau := time.Duration(th.RthCPerW * th.CthJPerC * float64(time.Second))
	dt := 10 * tau

	const powerW = 4.0
	tss := th.AmbientC + powerW*th.RthCPerW

	for _, start := range []float64{th.AmbientC, tss + 60} {
		w := &world{
			plat:       plat,
			tempC:      []float64{start},
			throttling: []bool{false},
			eval:       system.Eval{PowerSocket: []float64{powerW}},
		}
		w.maxTempC = start
		w.setTick(dt)
		prev := start
		for step := 0; step < 20; step++ {
			w.stepThermal()
			cur := w.tempC[0]
			if math.IsNaN(cur) || math.IsInf(cur, 0) {
				t.Fatalf("start %.1f C step %d: temperature %v diverged", start, step, cur)
			}
			if start < tss {
				if cur < prev-1e-12 || cur > tss+1e-9 {
					t.Fatalf("start %.1f C step %d: %.4f C not monotone toward steady state %.4f C (prev %.4f)", start, step, cur, tss, prev)
				}
			} else {
				if cur > prev+1e-12 || cur < tss-1e-9 {
					t.Fatalf("start %.1f C step %d: %.4f C not monotone toward steady state %.4f C (prev %.4f)", start, step, cur, tss, prev)
				}
			}
			prev = cur
		}
		if math.Abs(prev-tss) > 1e-6 {
			t.Fatalf("start %.1f C: after 20 coarse steps temperature %.6f C has not converged to %.6f C", start, prev, tss)
		}
	}
}

func thermalSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	return specs(t, 32, names...)
}

// hotPlatform is the thermally constrained server with the ambient raised
// to a hot aisle: steady uncapped power would push the junction ~20 C past
// TjMax, so some thermal protection must act.
func hotPlatform() *machine.Platform {
	p := machine.E52690ThermalServer()
	p.Thermal.AmbientC = 45
	return p
}

// Property: under the thermal-headroom governor the junction never exceeds
// TjMax + ε, the governor engages, and the duty-cycle protection stays
// essentially out of the picture.
func TestThermalGovernorHoldsTjMax(t *testing.T) {
	plat := hotPlatform()
	res, err := Run(Scenario{
		Platform:        plat,
		Specs:           thermalSpecs(t, "swaptions"),
		CapWatts:        220,
		Controller:      control.NewRAPLOnly(),
		Duration:        30 * time.Second,
		Seed:            11,
		ThermalGovernor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.5
	if res.MaxTempC > plat.Thermal.TjMaxC+eps {
		t.Errorf("governed run peaked at %.2f C, want ≤ TjMax %.1f C + %.1f", res.MaxTempC, plat.Thermal.TjMaxC, eps)
	}
	if res.ThermalGovernedFrac == 0 {
		t.Errorf("governor never engaged on a platform whose steady power exceeds sustainable dissipation")
	}
	if res.ThermalThrottleFrac > 0.02 {
		t.Errorf("duty-cycle protection engaged %.1f%% of the time despite the governor", res.ThermalThrottleFrac*100)
	}
	if len(res.FinalTempsC) != plat.Sockets {
		t.Errorf("FinalTempsC has %d entries, want %d", len(res.FinalTempsC), plat.Sockets)
	}
}

// The governor's pre-emptive cap tightening must beat the hardware's
// reactive duty-cycle chop on delivered performance while staying cooler:
// shaving Watts proportionally to vanishing headroom dominates a >50%
// clock cliff taken after the limit is already hit.
func TestThermalGovernorBeatsDutyCycleThrottle(t *testing.T) {
	base := Scenario{
		Specs:      thermalSpecs(t, "swaptions"),
		CapWatts:   220,
		Controller: control.NewRAPLOnly(),
		Duration:   30 * time.Second,
		Seed:       11,
	}
	throttled := base
	throttled.Platform = hotPlatform()
	resThrottle, err := Run(throttled)
	if err != nil {
		t.Fatal(err)
	}
	governed := base
	governed.Platform = hotPlatform()
	governed.ThermalGovernor = true
	resGov, err := Run(governed)
	if err != nil {
		t.Fatal(err)
	}

	if resThrottle.ThermalThrottleFrac < 0.1 {
		t.Fatalf("ungoverned hot run throttled only %.1f%% of the time; the scenario should be thermally binding", resThrottle.ThermalThrottleFrac*100)
	}
	if resGov.SteadyTotal() <= resThrottle.SteadyTotal() {
		t.Errorf("governor steady perf %.2f u/s should beat duty-cycle throttling %.2f u/s",
			resGov.SteadyTotal(), resThrottle.SteadyTotal())
	}
	if resGov.MaxTempC > resThrottle.MaxTempC+0.5 {
		t.Errorf("governor ran hotter (%.1f C) than the reactive throttle (%.1f C)", resGov.MaxTempC, resThrottle.MaxTempC)
	}
}

// Closing the leakage loop costs performance under a binding cap: the
// Watts leaked by hot silicon come out of the budget the workload could
// otherwise spend, so the leakage-enabled twin delivers less at the same
// cap — and its reported temperature reflects the extra heat.
func TestLeakageFeedbackLoopCostsPerformance(t *testing.T) {
	leaky := machine.E52690ThermalServer()
	plain := machine.E52690ThermalServer()
	plain.Leakage = nil

	run := func(p *machine.Platform) Result {
		res, err := Run(Scenario{
			Platform:   p,
			Specs:      thermalSpecs(t, "x264"),
			CapWatts:   140,
			Controller: control.NewRAPLOnly(),
			Duration:   30 * time.Second,
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resLeaky := run(leaky)
	resPlain := run(plain)

	if resLeaky.SteadyTotal() >= resPlain.SteadyTotal() {
		t.Errorf("leakage should tax the budget: leaky %.2f u/s >= plain %.2f u/s",
			resLeaky.SteadyTotal(), resPlain.SteadyTotal())
	}
	if resLeaky.MaxTempC <= leaky.Thermal.AmbientC {
		t.Errorf("leaky run never warmed above ambient (%.1f C)", resLeaky.MaxTempC)
	}
	// Both runs must still enforce the cap: leakage is power the RAPL
	// loop sees and compensates for, not a bypass around it.
	if resLeaky.BreachSeconds > 0.5 {
		t.Errorf("leaky run spent %.2f s over the cap", resLeaky.BreachSeconds)
	}
}

// Snapshot exposes the live thermal state, and omits it entirely on
// platforms without a thermal model.
func TestSessionThermalSnapshot(t *testing.T) {
	sess, err := NewSession(Scenario{
		Platform:        hotPlatform(),
		Specs:           thermalSpecs(t, "swaptions"),
		CapWatts:        220,
		Controller:      control.NewRAPLOnly(),
		Seed:            5,
		ThermalGovernor: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.Advance(20 * time.Second)
	sn := sess.Snapshot()
	if len(sn.Thermal) != 2 {
		t.Fatalf("snapshot thermal entries = %d, want 2", len(sn.Thermal))
	}
	for s, st := range sn.Thermal {
		if want := "package_" + string(rune('0'+s)); st.Zone != want {
			t.Errorf("zone %d label %q, want %q", s, st.Zone, want)
		}
		if st.TempC <= 45 || st.TempC > 96 {
			t.Errorf("zone %d temperature %.1f C implausible after 20 s hot run", s, st.TempC)
		}
		if st.CapScale <= 0 || st.CapScale > 1 {
			t.Errorf("zone %d cap scale %.2f outside (0, 1]", s, st.CapScale)
		}
	}
	if got := sess.Snapshot().Thermal; len(got) != 2 {
		t.Fatalf("a second snapshot has %d thermal entries, want 2", len(got))
	}

	bare := machine.E52690Server()
	bare.Thermal = nil
	sessBare, err := NewSession(Scenario{
		Platform:   bare,
		Specs:      thermalSpecs(t, "swaptions"),
		CapWatts:   220,
		Controller: control.NewRAPLOnly(),
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessBare.Advance(time.Second)
	if sn := sessBare.Snapshot(); sn.Thermal != nil {
		t.Errorf("thermal-free platform should have nil snapshot thermal state, got %+v", sn.Thermal)
	}
}
