package driver

// Calibration probes for the controller dynamics; they only log.

import (
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

func TestProbeEndStates(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	report := func(label string, ctrl core.Controller, capW float64, d time.Duration, threads int, names ...string) {
		res, err := Run(Scenario{
			Platform: plat, Specs: specs(t, threads, names...),
			CapWatts: capW, Controller: ctrl, Duration: d, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%-34s cfg=%-24v power=%6.1f rate=%6.2f settle=%8v spin=%.2f bw=%5.1f rates=%v",
			label, res.FinalConfig, res.SteadyPower, res.SteadyTotal(), res.Settling,
			res.FinalEval.SpinFrac, res.FinalEval.MemBWGBs, res.SteadyRates)
	}
	report("RAPL blackscholes 60W", control.NewRAPLOnly(), 60, 30*time.Second, 32, "blackscholes")
	report("SD   blackscholes 60W", core.NewSoftDecision(core.DefaultOrdered(plat)), 60, 150*time.Second, 32, "blackscholes")
	report("PUP  blackscholes 60W", core.NewPUPiL(core.DefaultOrdered(plat)), 60, 60*time.Second, 32, "blackscholes")
	report("RAPL x264 140W", control.NewRAPLOnly(), 140, 30*time.Second, 32, "x264")
	report("SD   x264 140W", core.NewSoftDecision(core.DefaultOrdered(plat)), 140, 150*time.Second, 32, "x264")
	report("PUP  x264 140W", core.NewPUPiL(core.DefaultOrdered(plat)), 140, 60*time.Second, 32, "x264")
	report("PUP  jacobi 140W", core.NewPUPiL(core.DefaultOrdered(plat)), 140, 60*time.Second, 32, "jacobi")
	report("RAPL mix8 obl 140W", control.NewRAPLOnly(), 140, 30*time.Second, 32, "kmeans", "dijkstra", "x264", "STREAM")
	report("PUP  mix8 obl 140W", core.NewPUPiL(core.DefaultOrdered(plat)), 140, 60*time.Second, 32, "kmeans", "dijkstra", "x264", "STREAM")
	report("PUP  mix12 obl 140W", core.NewPUPiL(core.DefaultOrdered(plat)), 140, 60*time.Second, 32, "btree", "particlefilter", "kmeans", "STREAM")
}

func TestProbeWalkDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	res, err := Run(Scenario{
		Platform: plat,
		Specs:    specs(t, 32, "kmeans", "dijkstra", "x264", "STREAM"),
		CapWatts: 140, Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration: 60 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.ConfigLog {
		t.Logf("%8v  %v", ev.T, ev.Cfg)
	}
}

func TestProbePerfOscillation(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	res, err := Run(Scenario{
		Platform: plat,
		Specs:    specs(t, 32, "kmeans", "dijkstra", "x264", "STREAM"),
		CapWatts: 140, Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration: 32 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 17; s < 31; s++ {
		from, to := time.Duration(s)*time.Second, time.Duration(s+1)*time.Second
		t.Logf("t=%2ds perf(mean)=%.3f power(mean)=%.1f", s,
			res.PerfTrace.MeanBetween(from, to), res.TruePower.MeanBetween(from, to))
	}
}

func TestProbeWalkerTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	w := core.NewPUPiL(core.DefaultOrdered(plat))
	w.SetTrace(t.Logf)
	_, err := Run(Scenario{
		Platform: plat,
		Specs:    specs(t, 32, "kmeans", "dijkstra", "x264", "STREAM"),
		CapWatts: 140, Controller: w,
		Duration: 45 * time.Second, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProbeCoopMix(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	for _, capW := range []float64{140, 220} {
		for _, mk := range []string{"rapl", "pupil"} {
			var ctrl core.Controller = control.NewRAPLOnly()
			var w *core.Walker
			if mk == "pupil" {
				w = core.NewPUPiL(core.DefaultOrdered(plat))
				w.SetTrace(t.Logf)
				ctrl = w
			}
			res, err := Run(Scenario{
				Platform: plat,
				Specs:    specs(t, 8, "cfd", "bfs", "fluidanimate", "jacobi"), // mix2 coop
				CapWatts: capW, Controller: ctrl,
				Duration: 60 * time.Second, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("cap=%3.0f %-5s cfg=%-22v power=%6.1f rates=%v", capW, mk, res.FinalConfig, res.SteadyPower, res.SteadyRates)
		}
	}
}

func TestProbeCoopMix8(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	names := []string{"kmeans", "dijkstra", "x264", "STREAM"}
	// Alone rates for weighting (oracle, uncapped).
	alone := make([]float64, len(names))
	for i, n := range names {
		p2, _ := workload.ByName(n)
		apps, _ := workload.NewInstances([]workload.Spec{{Profile: p2, Threads: 8}})
		_, ev, _ := control.OptimalSearch(plat, apps, 1e9, control.TotalRate)
		alone[i] = ev.TotalRate()
	}
	for _, capW := range []float64{140, 220} {
		for _, mk := range []string{"rapl", "pupil"} {
			var ctrl core.Controller = control.NewRAPLOnly()
			if mk == "pupil" {
				w := core.NewPUPiL(core.DefaultOrdered(plat))
				w.SetTrace(t.Logf)
				ctrl = w
			}
			res, err := Run(Scenario{
				Platform: plat, Specs: specs(t, 8, names...),
				CapWatts: capW, Controller: ctrl,
				Duration: 60 * time.Second, Seed: 11, PerfWeights: alone,
			})
			if err != nil {
				t.Fatal(err)
			}
			ws := res.WeightedSpeedup(alone)
			t.Logf("cap=%3.0f %-5s cfg=%-22v power=%6.1f WS=%.3f rates=%v", capW, mk, res.FinalConfig, res.SteadyPower, ws, res.SteadyRates)
		}
	}
}

func TestProbeEAS(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	for _, mixNames := range [][]string{
		{"btree", "particlefilter", "kmeans", "STREAM"}, // mix12
		{"STREAM", "kmeans", "vips", "HOP"},             // mix7
	} {
		for _, mk := range []string{"pupil", "eas"} {
			var ctrl core.Controller = core.NewPUPiL(core.DefaultOrdered(plat))
			var eas *core.EAS
			if mk == "eas" {
				eas = core.NewPUPiLEAS(core.DefaultOrdered(plat))
				ctrl = eas
			}
			res, err := Run(Scenario{
				Platform: plat, Specs: specs(t, 32, mixNames...),
				CapWatts: 220, Controller: ctrl,
				Duration: 90 * time.Second, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			lim := []int(nil)
			if eas != nil {
				lim = eas.Limits()
			}
			t.Logf("%-24v %-6s cfg=%-22v rate=%6.2f spin=%.2f limits=%v rates=%v",
				mixNames[2], mk, res.FinalConfig, res.SteadyTotal(), res.FinalEval.SpinFrac, lim, res.SteadyRates)
		}
	}
}

func TestProbeViolations60W(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	res, err := Run(Scenario{
		Platform: plat, Specs: specs(t, 32, "bodytrack"),
		CapWatts: 60, Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration: 30 * time.Second, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("violations=%.3f settled=%v settling=%v final=%v power=%.1f", res.ViolationFrac, res.Settled, res.Settling, res.FinalConfig, res.SteadyPower)
	// find violating intervals on smoothed trace
	limit := 60 * 1.03
	sm := res.TruePower
	cnt := 0
	for _, s := range sm.Samples {
		if s.V > limit && s.T > time.Second {
			if cnt < 20 {
				t.Logf("  t=%v p=%.1f", s.T, s.V)
			}
			cnt++
		}
	}
	t.Logf("raw-over=%d of %d", cnt, sm.Len())
}

func TestProbeViolationTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.E52690Server()
	res, err := Run(Scenario{
		Platform: plat, Specs: specs(t, 32, "bodytrack"),
		CapWatts: 60, Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration: 30 * time.Second, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.ConfigLog {
		t.Logf("cfg %8v %v", ev.T, ev.Cfg)
	}
	for s := 0; s < 26; s++ {
		from := time.Duration(s) * time.Second
		t.Logf("t=%2ds mean=%.1f", s, res.TruePower.MeanBetween(from, from+time.Second))
	}
}

func TestProbeMobile(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe")
	}
	plat := machine.MobileSoC()
	prof, _ := workload.ByName("x264")
	apps := []workload.Spec{{Profile: prof, Threads: 4}}
	res, err := Run(Scenario{
		Platform: plat, Specs: apps, CapWatts: 2.8,
		Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
		Duration:   60 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("settled=%v steady=%.3f cfg=%v viol=%.2f", res.Settled, res.SteadyPower, res.FinalConfig, res.ViolationFrac)
	for s := 50; s < 60; s += 2 {
		from := time.Duration(s) * time.Second
		t.Logf("t=%2ds mean=%.3f", s, res.TruePower.MeanBetween(from, from+2*time.Second))
	}
}
