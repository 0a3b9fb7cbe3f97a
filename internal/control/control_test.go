package control

import (
	"testing"
	"time"

	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// scriptEnv is a minimal synchronous core.Env for exercising controllers
// without the full simulation harness: feedback comes straight from the
// ground-truth evaluator, and hardware capping is emulated by picking the
// fastest shared operating point under the per-socket caps.
type scriptEnv struct {
	p    *machine.Platform
	apps []*workload.Instance
	cap  float64
	now  time.Duration
	cfg  machine.Config

	raplCaps   []float64
	configSets int
	raplSets   int
}

func newScriptEnv(t *testing.T, capW float64, threads int, names ...string) *scriptEnv {
	t.Helper()
	p := machine.E52690Server()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		prof, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = workload.Spec{Profile: prof, Threads: threads}
	}
	apps, err := workload.NewInstances(specs)
	if err != nil {
		t.Fatal(err)
	}
	return &scriptEnv{p: p, apps: apps, cap: capW, cfg: machine.MaxConfig(p)}
}

func (e *scriptEnv) Now() time.Duration          { return e.now }
func (e *scriptEnv) CapWatts() float64           { return e.cap }
func (e *scriptEnv) Platform() *machine.Platform { return e.p }
func (e *scriptEnv) Config() machine.Config      { return e.cfg.Clone() }
func (e *scriptEnv) RAPLSupported() bool         { return true }

func (e *scriptEnv) SetConfig(c machine.Config) time.Duration {
	e.cfg = c.Normalize(e.p)
	e.configSets++
	return e.now + 100*time.Millisecond
}

func (e *scriptEnv) SetRAPL(perSocket []float64) {
	e.raplCaps = append([]float64(nil), perSocket...)
	e.raplSets++
}

func (e *scriptEnv) eval() system.Eval {
	cfg := e.cfg.Clone()
	if len(e.raplCaps) > 0 {
		under := func(ev system.Eval) bool {
			for s, w := range ev.PowerSocket {
				if s < len(e.raplCaps) && e.raplCaps[s] > 0 && w > e.raplCaps[s]*1.01 {
					return false
				}
			}
			return true
		}
		for f := e.p.NumFreqSettings() - 1; f >= 0; f-- {
			for s := range cfg.Freq {
				cfg.Freq[s] = f
			}
			if ev := system.Evaluate(e.p, cfg, e.apps, e.now); under(ev) {
				return ev
			}
		}
		for d := 0.9; d >= 0.05; d -= 0.05 {
			for s := range cfg.Duty {
				cfg.Freq[s] = 0
				cfg.Duty[s] = d
			}
			if ev := system.Evaluate(e.p, cfg, e.apps, e.now); under(ev) {
				return ev
			}
		}
	}
	return system.Evaluate(e.p, cfg, e.apps, e.now)
}

func (e *scriptEnv) Feedback(time.Duration) core.Feedback {
	ev := e.eval()
	return core.Feedback{Perf: ev.TotalRate(), Power: ev.PowerTotal, Samples: 64}
}

func (e *scriptEnv) step(c core.Controller, d time.Duration) {
	end := e.now + d
	for e.now < end {
		e.now += c.Period()
		c.Step(e)
	}
}

func TestRAPLOnlySetsMaxConfigAndEvenSplit(t *testing.T) {
	env := newScriptEnv(t, 140, 32, "jacobi")
	c := NewRAPLOnly()
	c.Start(env)
	if !env.cfg.Equal(machine.MaxConfig(env.p)) {
		t.Errorf("RAPL-only config = %v, want max", env.cfg)
	}
	if len(env.raplCaps) != 2 || env.raplCaps[0] != 70 || env.raplCaps[1] != 70 {
		t.Errorf("RAPL caps = %v, want even 70/70 split", env.raplCaps)
	}
	c.Step(env)
	if env.configSets != 1 || env.raplSets != 1 {
		t.Errorf("RAPL-only acted again after Start: %d config sets, %d cap sets",
			env.configSets, env.raplSets)
	}
}

func TestSoftDVFSStepsDownToCap(t *testing.T) {
	env := newScriptEnv(t, 140, 32, "blackscholes")
	c := NewSoftDVFS()
	c.Start(env)
	env.step(c, 60*time.Second)
	fb := env.Feedback(0)
	if fb.Power > 140 {
		t.Errorf("Soft-DVFS converged power %.1f W exceeds the cap", fb.Power)
	}
	// It must not have left the whole budget unused either.
	if fb.Power < 140*0.70 {
		t.Errorf("Soft-DVFS converged power %.1f W wastes the budget", fb.Power)
	}
	if env.raplSets != 0 {
		t.Errorf("Soft-DVFS touched the hardware capper %d times", env.raplSets)
	}
}

func TestSoftDVFSNeverRequestsTurbo(t *testing.T) {
	env := newScriptEnv(t, 500, 32, "swaptions") // effectively uncapped
	c := NewSoftDVFS()
	c.Start(env)
	env.step(c, 60*time.Second)
	top := len(env.p.FreqsGHz) - 1
	for s, f := range env.cfg.Freq {
		if f > top {
			t.Errorf("Soft-DVFS requested turbo on socket %d (cpufrequtils cannot)", s)
		}
	}
}

func TestSoftDVFSHoldsFloorWhenInfeasible(t *testing.T) {
	env := newScriptEnv(t, 60, 32, "blackscholes")
	c := NewSoftDVFS()
	c.Start(env)
	env.step(c, 60*time.Second)
	for s, f := range env.cfg.Freq {
		if f != 0 {
			t.Errorf("socket %d at setting %d, want the floor under an infeasible cap", s, f)
		}
	}
	if fb := env.Feedback(0); fb.Power <= 60 {
		t.Errorf("premise broken: floor power %.1f W should exceed the 60 W cap", fb.Power)
	}
}

func TestTrainSoftModelingDeterministic(t *testing.T) {
	p := machine.E52690Server()
	a, err := TrainSoftModeling(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainSoftModeling(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	envA, envB := newScriptEnv(t, 140, 32, "cfd"), newScriptEnv(t, 140, 32, "cfd")
	a.Start(envA)
	b.Start(envB)
	if !envA.cfg.Equal(envB.cfg) {
		t.Errorf("same-seed Soft-Modeling picked different configs: %v vs %v", envA.cfg, envB.cfg)
	}
}

func TestSoftModelingPicksSmallerConfigsForTighterCaps(t *testing.T) {
	p := machine.E52690Server()
	sm, err := TrainSoftModeling(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	envLoose := newScriptEnv(t, 220, 32, "jacobi")
	envTight := newScriptEnv(t, 80, 32, "jacobi")
	sm.Start(envLoose)
	sm.Start(envTight)
	loose := system.Evaluate(p, envLoose.cfg, envLoose.apps, 0)
	tight := system.Evaluate(p, envTight.cfg, envTight.apps, 0)
	if tight.PowerTotal >= loose.PowerTotal {
		t.Errorf("tighter cap chose hungrier config: %.1f W vs %.1f W", tight.PowerTotal, loose.PowerTotal)
	}
}

func TestSoftModelingNeverReacts(t *testing.T) {
	p := machine.E52690Server()
	sm, err := TrainSoftModeling(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	env := newScriptEnv(t, 140, 32, "HOP")
	sm.Start(env)
	sets := env.configSets
	env.step(sm, 30*time.Second)
	if env.configSets != sets {
		t.Errorf("offline approach reconfigured at runtime (%d -> %d sets)", sets, env.configSets)
	}
}

func TestOptimalSearchRespectsCap(t *testing.T) {
	p := machine.E52690Server()
	for _, name := range []string{"x264", "kmeans", "STREAM", "dijkstra"} {
		prof, _ := workload.ByName(name)
		apps, _ := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 32}})
		for _, capW := range []float64{60, 140, 220} {
			cfg, ev, ok := OptimalSearch(p, apps, capW, TotalRate)
			if !ok {
				t.Fatalf("%s at %.0f W: no feasible config", name, capW)
			}
			if ev.PowerTotal > capW {
				t.Errorf("%s at %.0f W: optimal config %v draws %.1f W", name, capW, cfg, ev.PowerTotal)
			}
		}
	}
}

func TestOptimalSearchMonotoneInCap(t *testing.T) {
	p := machine.E52690Server()
	prof, _ := workload.ByName("bodytrack")
	apps, _ := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 32}})
	prev := 0.0
	for _, capW := range []float64{60, 100, 140, 180, 220} {
		_, ev, ok := OptimalSearch(p, apps, capW, TotalRate)
		if !ok {
			t.Fatalf("no feasible config at %.0f W", capW)
		}
		if ev.TotalRate() < prev-1e-9 {
			t.Errorf("optimal perf decreased with a looser cap: %.3f after %.3f", ev.TotalRate(), prev)
		}
		prev = ev.TotalRate()
	}
}

func TestOptimalSearchInfeasible(t *testing.T) {
	p := machine.E52690Server()
	prof, _ := workload.ByName("jacobi")
	apps, _ := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 32}})
	if _, _, ok := OptimalSearch(p, apps, 5, TotalRate); ok {
		t.Error("OptimalSearch found a config under 5 W")
	}
}
