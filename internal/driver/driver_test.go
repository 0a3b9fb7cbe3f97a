package driver

import (
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

func specs(t *testing.T, threads int, names ...string) []workload.Spec {
	t.Helper()
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = workload.Spec{Profile: p, Threads: threads}
	}
	return out
}

func runOne(t *testing.T, ctrl core.Controller, capW float64, d time.Duration, names ...string) Result {
	t.Helper()
	res, err := Run(Scenario{
		Platform:   machine.E52690Server(),
		Specs:      specs(t, 32, names...),
		CapWatts:   capW,
		Controller: ctrl,
		Duration:   d,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunValidation(t *testing.T) {
	p := machine.E52690Server()
	good := Scenario{Platform: p, Specs: specs(t, 32, "jacobi"), CapWatts: 140,
		Controller: control.NewRAPLOnly(), Duration: time.Second}

	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no platform", func(s *Scenario) { s.Platform = nil }},
		{"zero cap", func(s *Scenario) { s.CapWatts = 0 }},
		{"no controller", func(s *Scenario) { s.Controller = nil }},
		{"no apps", func(s *Scenario) { s.Specs = nil }},
		{"bad weights", func(s *Scenario) { s.PerfWeights = []float64{1, 2} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := good
			c.mut(&s)
			if _, err := Run(s); err == nil {
				t.Errorf("Run accepted scenario with %s", c.name)
			}
		})
	}
}

func TestRAPLOnlyMeetsCapQuickly(t *testing.T) {
	res := runOne(t, control.NewRAPLOnly(), 140, 10*time.Second, "jacobi")
	if !res.Settled {
		t.Fatal("RAPL did not settle")
	}
	if res.Settling > time.Second {
		t.Errorf("RAPL settling = %v, want well under 1s (paper: ~356ms)", res.Settling)
	}
	if res.SteadyPower > 140*1.03 {
		t.Errorf("RAPL steady power %.1f W exceeds cap", res.SteadyPower)
	}
	if res.SteadyPower < 140*0.80 {
		t.Errorf("RAPL steady power %.1f W leaves the budget badly unused", res.SteadyPower)
	}
	if res.ViolationFrac > 0.02 {
		t.Errorf("RAPL violation fraction %.3f, want ~0", res.ViolationFrac)
	}
}

func TestPUPiLSettlesLikeHardware(t *testing.T) {
	res := runOne(t, core.NewPUPiL(core.DefaultOrdered(machine.E52690Server())), 140,
		30*time.Second, "x264")
	if !res.Settled {
		t.Fatal("PUPiL did not settle")
	}
	if res.Settling > 1200*time.Millisecond {
		t.Errorf("PUPiL settling = %v, want hardware-like (paper: ~365ms)", res.Settling)
	}
}

func TestPUPiLBeatsRAPLOnX264(t *testing.T) {
	// The motivational example: ~20% at the 140 W cap once converged.
	raplRes := runOne(t, control.NewRAPLOnly(), 140, 60*time.Second, "x264")
	pupilRes := runOne(t, core.NewPUPiL(core.DefaultOrdered(machine.E52690Server())), 140,
		60*time.Second, "x264")
	if pupilRes.SteadyTotal() <= raplRes.SteadyTotal()*1.05 {
		t.Errorf("PUPiL steady perf %.2f should beat RAPL %.2f by >5%% on x264",
			pupilRes.SteadyTotal(), raplRes.SteadyTotal())
	}
}

// TestFirmwareDithersAcrossTurboGap: under PUPiL at 140 W the mix's
// socket 0 settles in the 2.9 -> 3.8 GHz turbo gap, which is wider than
// one slew-limited solve. The firmware's climb rule is what crosses it:
// the operating point alternates between the top p-state and turbo, one
// rung at a time and always at full duty, rather than sticking below the
// gap or falling back on duty modulation.
func TestFirmwareDithersAcrossTurboGap(t *testing.T) {
	plat := machine.E52690Server()
	res, err := Run(Scenario{
		Platform: plat,
		Specs:    specs(t, 32, "kmeans", "dijkstra", "x264", "STREAM"),
		CapWatts: 140, Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration: 25 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	turbo := plat.NumFreqSettings() - 1
	visits := map[int]int{}
	prev := -1
	for _, ev := range res.OpLog {
		if ev.T <= 4*time.Second || ev.Socket != 0 {
			continue
		}
		if ev.Duty != 1 {
			t.Fatalf("at %v socket 0 runs rung %d at duty %v, want full duty", ev.T, ev.FreqIdx, ev.Duty)
		}
		if prev >= 0 && ev.FreqIdx != prev+1 && ev.FreqIdx != prev-1 {
			t.Fatalf("at %v socket 0 moved from rung %d to %d, want one rung", ev.T, prev, ev.FreqIdx)
		}
		prev = ev.FreqIdx
		visits[ev.FreqIdx]++
	}
	if visits[turbo-1] < 25 || visits[turbo] < 25 {
		t.Fatalf("socket 0 visited the top p-state %d times and turbo %d times after 4 s (all visits %v), want at least 25 each",
			visits[turbo-1], visits[turbo], visits)
	}
}

func TestSoftDVFSSettlesSlowerThanRAPL(t *testing.T) {
	res := runOne(t, control.NewSoftDVFS(), 140, 60*time.Second, "x264")
	if !res.Settled {
		t.Fatal("Soft-DVFS did not settle at 140 W")
	}
	if res.Settling < time.Second {
		t.Errorf("Soft-DVFS settling = %v; software feedback should take seconds", res.Settling)
	}
	if res.Settling > 30*time.Second {
		t.Errorf("Soft-DVFS settling = %v, implausibly slow (paper: ~7s)", res.Settling)
	}
	if res.SteadyPower > 140*1.03 {
		t.Errorf("Soft-DVFS steady power %.1f W exceeds cap", res.SteadyPower)
	}
}

func TestSoftDVFSInfeasibleAtSixtyWatts(t *testing.T) {
	// Even the lowest p-state exceeds 60 W with all threads active
	// (Table 3's missing Soft-DVFS entry).
	res := runOne(t, control.NewSoftDVFS(), 60, 30*time.Second, "blackscholes")
	if res.Settled && res.SteadyPower <= 60*1.03 {
		t.Errorf("Soft-DVFS met the 60 W cap (%.1f W); the paper finds this infeasible", res.SteadyPower)
	}
}

func TestSoftDecisionBeatsRAPLOnKmeans(t *testing.T) {
	sd := core.NewSoftDecision(core.DefaultOrdered(machine.E52690Server()))
	res := runOne(t, sd, 140, 180*time.Second, "kmeans")
	if !res.Settled {
		t.Fatal("Soft-Decision did not settle within 180s")
	}
	raplRes := runOne(t, control.NewRAPLOnly(), 140, 60*time.Second, "kmeans")
	if res.SteadyTotal() <= raplRes.SteadyTotal()*1.5 {
		t.Errorf("Soft-Decision steady perf %.2f should dominate RAPL %.2f on kmeans (paper: >2x)",
			res.SteadyTotal(), raplRes.SteadyTotal())
	}
}

func TestSoftDecisionSettlesSlowlyOnX264(t *testing.T) {
	// x264's best configuration keeps both sockets, so the walk's DVFS
	// probe at the top speed overshoots the cap and enforcement only
	// stabilizes once the binary search backs off — the orders-of-
	// magnitude software settling penalty of Fig. 4.
	sd := core.NewSoftDecision(core.DefaultOrdered(machine.E52690Server()))
	res := runOne(t, sd, 140, 180*time.Second, "x264")
	if !res.Settled {
		t.Fatal("Soft-Decision did not settle within 180s")
	}
	if res.Settling < 10*time.Second {
		t.Errorf("Soft-Decision settling = %v on x264; the walk should take tens of seconds", res.Settling)
	}
}

func TestSoftModelingAppliesOnce(t *testing.T) {
	sm, err := control.TrainSoftModeling(machine.E52690Server(), 99)
	if err != nil {
		t.Fatal(err)
	}
	res := runOne(t, sm, 140, 20*time.Second, "jacobi")
	if res.SteadyTotal() <= 0 {
		t.Error("Soft-Modeling produced no performance")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() Result {
		return runOne(t, control.NewRAPLOnly(), 100, 5*time.Second, "swaptions")
	}
	a, b := run(), run()
	if a.SteadyPower != b.SteadyPower || a.SteadyTotal() != b.SteadyTotal() ||
		a.EnergyJ != b.EnergyJ || a.Settling != b.Settling {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

func TestEnergyAccountingMatchesPowerTrace(t *testing.T) {
	res := runOne(t, control.NewRAPLOnly(), 140, 5*time.Second, "cfd")
	// Energy should be close to mean power x duration.
	mean := res.TruePower.MeanBetween(0, 6*time.Second)
	approx := mean * 5
	if res.EnergyJ < approx*0.9 || res.EnergyJ > approx*1.1 {
		t.Errorf("EnergyJ = %.1f, want ~%.1f", res.EnergyJ, approx)
	}
}

func TestMultiAppScenarioRuns(t *testing.T) {
	mix, err := workload.MixByName("mix8")
	if err != nil {
		t.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{
		Platform:   machine.E52690Server(),
		Specs:      workload.Specs(profs, 32),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
		Duration:   20 * time.Second,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SteadyRates) != 4 {
		t.Fatalf("SteadyRates has %d entries, want 4", len(res.SteadyRates))
	}
	if res.FinalEval.SpinFrac < 0.1 {
		t.Errorf("oblivious mix8 under RAPL spin = %.2f, want substantial (Table 6: 54%%)", res.FinalEval.SpinFrac)
	}
}

func TestAffinityEnvMechanics(t *testing.T) {
	// The driver world must expose per-application control: affinity
	// takes effect after migration latency and per-app heartbeats flow.
	res, err := Run(Scenario{
		Platform:   machine.E52690Server(),
		Specs:      specs(t, 32, "btree", "particlefilter", "kmeans", "STREAM"),
		CapWatts:   220,
		Controller: core.NewPUPiLEAS(core.DefaultOrdered(machine.E52690Server())),
		Duration:   90 * time.Second,
		Seed:       7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyTotal() <= 0 {
		t.Fatal("EAS run produced nothing")
	}
}

func TestEASBeatsPUPiLOnStuckMix(t *testing.T) {
	run := func(ctrl core.Controller) Result {
		res, err := Run(Scenario{
			Platform:   machine.E52690Server(),
			Specs:      specs(t, 32, "btree", "particlefilter", "kmeans", "STREAM"),
			CapWatts:   220,
			Controller: ctrl,
			Duration:   90 * time.Second,
			Seed:       7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p := machine.E52690Server()
	pupilRes := run(core.NewPUPiL(core.DefaultOrdered(p)))
	easRes := run(core.NewPUPiLEAS(core.DefaultOrdered(p)))
	if easRes.SteadyTotal() <= pupilRes.SteadyTotal()*1.1 {
		t.Errorf("EAS %.2f should clearly beat PUPiL %.2f when the walk keeps both sockets",
			easRes.SteadyTotal(), pupilRes.SteadyTotal())
	}
	if easRes.FinalEval.SpinFrac > pupilRes.FinalEval.SpinFrac {
		t.Errorf("EAS spin %.2f should not exceed PUPiL's %.2f",
			easRes.FinalEval.SpinFrac, pupilRes.FinalEval.SpinFrac)
	}
}

// TestRewalkOnWorkloadShift exercises the decision framework's phase-change
// monitoring end to end: the application's behaviour changes durably
// mid-run (a new input arrives), the filtered feedback deviates
// persistently, and the walker re-walks to the new workload's best
// configuration.
func TestRewalkOnWorkloadShift(t *testing.T) {
	plat := machine.E52690Server()
	scalable, err := workload.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	pathological, err := workload.ByName("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	w := core.NewPUPiL(core.DefaultOrdered(plat))
	res, err := Run(Scenario{
		Platform: plat,
		Specs: []workload.Spec{{
			Profile: scalable,
			Threads: 32,
			Shift:   &workload.ProfileShift{At: 60 * time.Second, Profile: pathological},
		}},
		CapWatts:   140,
		Controller: w,
		Duration:   150 * time.Second,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Walks() < 2 {
		t.Fatalf("walker walked %d times; the shift at 60s must trigger a re-walk", w.Walks())
	}
	if res.FinalConfig.Sockets != 1 {
		t.Errorf("final config %v should restrict the shifted kmeans workload to one socket", res.FinalConfig)
	}
	// Before the shift the scalable workload should have kept both sockets.
	var preShift machine.Config
	for _, ev := range res.ConfigLog {
		if ev.T < 60*time.Second {
			preShift = ev.Cfg
		}
	}
	if preShift.Sockets != 2 {
		t.Errorf("pre-shift config %v should use both sockets for blackscholes", preShift)
	}
}

// TestTimelinessVsEfficiencyConvergence pins down the paper's central
// distinction on one PUPiL run: the cap is enforced at hardware speed while
// performance keeps improving for tens of seconds as the walk explores.
func TestTimelinessVsEfficiencyConvergence(t *testing.T) {
	res := runOne(t, core.NewPUPiL(core.DefaultOrdered(machine.E52690Server())), 140,
		60*time.Second, "x264")
	if !res.Settled || !res.PerfConverged {
		t.Fatalf("run did not stabilize: settled=%v perfConverged=%v", res.Settled, res.PerfConverged)
	}
	if res.PerfConvergence < 4*res.Settling {
		t.Errorf("perf convergence %v should lag cap enforcement %v by a wide margin",
			res.PerfConvergence, res.Settling)
	}
}

func TestSessionIncrementalAdvance(t *testing.T) {
	plat := machine.E52690Server()
	s, err := NewSession(Scenario{
		Platform:   plat,
		Specs:      specs(t, 32, "jacobi"),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", s.Now())
	}
	p1 := s.MeanPower(2 * time.Second)
	if p1 <= 0 || p1 > 145 {
		t.Errorf("mean power %v implausible", p1)
	}
	if len(s.Rates()) != 1 || s.Rates()[0] <= 0 {
		t.Errorf("rates = %v", s.Rates())
	}
	// Tighten the cap mid-run; the node must follow.
	if err := s.SetCap(80); err != nil {
		t.Fatal(err)
	}
	s.Advance(10 * time.Second)
	if got := s.MeanPower(2 * time.Second); got > 80*1.05 {
		t.Errorf("after tightening to 80 W the node draws %.1f W", got)
	}
	// Loosen again; throughput should recover above the tight level.
	tight := s.MeanRate(2 * time.Second)
	if err := s.SetCap(200); err != nil {
		t.Fatal(err)
	}
	s.Advance(10 * time.Second)
	if loose := s.MeanRate(2 * time.Second); loose <= tight {
		t.Errorf("loosening the cap did not raise throughput: %.2f -> %.2f", tight, loose)
	}
	res := s.Result()
	if res.SteadyTotal() <= 0 {
		t.Error("session result empty")
	}
}

func TestSessionValidation(t *testing.T) {
	if _, err := NewSession(Scenario{}); err == nil {
		t.Error("NewSession accepted empty scenario")
	}
	s, err := NewSession(Scenario{
		Platform:   machine.E52690Server(),
		Specs:      specs(t, 32, "jacobi"),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetCap(-5); err == nil {
		t.Error("SetCap accepted negative cap")
	}
}

// TestDarkSiliconThermalThrottle reproduces the paper's opening example:
// the mobile SoC's peak power is ~2x its sustainable dissipation, so
// running uncapped it holds peak speed for only about a second before
// thermal throttling engages — while capping at the sustainable power keeps
// the junction below its limit entirely and delivers *more* steady
// throughput than the throttle-oscillating uncapped run.
func TestDarkSiliconThermalThrottle(t *testing.T) {
	plat := machine.MobileSoC()
	sustainable := plat.Thermal.SustainableWatts()
	if sustainable < 2.5 || sustainable > 3.2 {
		t.Fatalf("mobile sustainable power %.2f W, want ~2.8 W", sustainable)
	}

	prof, err := workload.ByName("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	specs := []workload.Spec{{Profile: prof, Threads: 4}}

	// Uncapped: a generous cap that never binds, leaving only the
	// thermal protection.
	uncapped, err := Run(Scenario{
		Platform: plat, Specs: specs, CapWatts: 100,
		Controller: control.NewRAPLOnly(), Duration: 30 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.ThermalThrottleFrac < 0.2 {
		t.Errorf("uncapped mobile run throttled only %.0f%% of the time; the dark-silicon chip should spend much of its life throttled",
			uncapped.ThermalThrottleFrac*100)
	}
	if uncapped.MaxTempC < plat.Thermal.TjMaxC {
		t.Errorf("uncapped run peaked at %.1f C, should reach TjMax %.1f C", uncapped.MaxTempC, plat.Thermal.TjMaxC)
	}
	// Peak speed holds only briefly: the first throttle event lands
	// within the first ~2 seconds.
	firstHot := time.Duration(-1)
	for _, sm := range uncapped.TruePower.Samples {
		if sm.T > 200*time.Millisecond && sm.V < 3.5 { // throttled power collapses
			firstHot = sm.T
			break
		}
	}
	if firstHot < 0 || firstHot > 2*time.Second {
		t.Errorf("first thermal throttle at %v, want within ~1-2 s of launch", firstHot)
	}

	// Capped at the sustainable power: no throttling, and better steady
	// throughput than the oscillating uncapped run.
	capped, err := Run(Scenario{
		Platform: plat, Specs: specs, CapWatts: sustainable,
		Controller: control.NewRAPLOnly(), Duration: 30 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capped.ThermalThrottleFrac > 0.01 {
		t.Errorf("sustainably capped run still throttled %.1f%% of the time", capped.ThermalThrottleFrac*100)
	}
	if capped.MaxTempC >= plat.Thermal.TjMaxC {
		t.Errorf("capped run reached %.1f C, should stay below TjMax", capped.MaxTempC)
	}
	if capped.SteadyTotal() <= uncapped.SteadyTotal() {
		t.Errorf("sustainable cap %.2f u/s should beat throttle-oscillating uncapped %.2f u/s",
			capped.SteadyTotal(), uncapped.SteadyTotal())
	}
}

// TestServerNeverThermallyThrottles: the reference server's heatsink keeps
// it below TjMax at any workload, so the thermal model never perturbs the
// paper's experiments.
func TestServerNeverThermallyThrottles(t *testing.T) {
	res := runOne(t, control.NewRAPLOnly(), 220, 30*time.Second, "swaptions")
	if res.ThermalThrottleFrac > 0 {
		t.Errorf("server throttled %.2f%% of the run", res.ThermalThrottleFrac*100)
	}
	if res.MaxTempC >= machine.E52690Server().Thermal.TjMaxC {
		t.Errorf("server junction reached %.1f C", res.MaxTempC)
	}
}
