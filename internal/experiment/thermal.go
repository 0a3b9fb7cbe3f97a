package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/workload"
)

// The thermal experiment closes the paper's power story with the
// temperature axis the hardware actually lives on: on a thermally
// constrained chassis the binding limit is the junction trip point, not
// the RAPL cap. Each cell runs one capping technique in one cooling
// environment (ambient x thermal resistance) under one protection mode —
// the package's reactive duty-cycle throttle, or the pre-emptive
// thermal-headroom governor — and records delivered performance next to
// the thermal trajectory. The comparison mirrors the paper's
// hardware-vs-software argument one level down: a blunt hardware cliff
// against a proportional budget squeeze.

// thermalCap is the RAPL cap every thermal cell enforces: high enough
// that the junction, not the cap, is the binding constraint in the hot
// environments.
const thermalCap = 220.0

// thermalThreads matches the single-application sweeps.
const thermalThreads = 32

// thermalBenchmark is the compute-bound, power-hungry workload that keeps
// the sockets near full draw for the whole run.
const thermalBenchmark = "swaptions"

func thermalDuration(cfg Config) time.Duration {
	if cfg.Quick {
		return 20 * time.Second
	}
	return 40 * time.Second
}

// thermalEnv is one cooling environment applied to the thermally
// constrained server.
type thermalEnv struct {
	name     string
	ambientC float64
	rthCPerW float64
}

// thermalEnvs spans marginal to strongly thermally bound: the cool aisle
// barely grazes TjMax at full draw, the hot aisle exceeds it steadily,
// and choked airflow raises the thermal resistance itself.
func thermalEnvs() []thermalEnv {
	return []thermalEnv{
		{name: "cool-aisle", ambientC: 25, rthCPerW: 0.65},
		{name: "hot-aisle", ambientC: 45, rthCPerW: 0.65},
		{name: "choked-airflow", ambientC: 35, rthCPerW: 0.85},
	}
}

// platform builds the environment's platform.
func (e thermalEnv) platform() *machine.Platform {
	p := machine.E52690ThermalServer()
	p.Thermal.AmbientC = e.ambientC
	p.Thermal.RthCPerW = e.rthCPerW
	return p
}

// thermalTechniques are the capping techniques compared: the hardware
// baseline and the hybrid.
func thermalTechniques() []string {
	return []string{TechRAPL, TechPUPiL}
}

// thermalController builds a fresh controller against the environment's
// platform (the decision-framework config space is platform-derived).
func thermalController(tech string, p *machine.Platform) (core.Controller, error) {
	switch tech {
	case TechRAPL:
		return control.NewRAPLOnly(), nil
	case TechPUPiL:
		return core.NewPUPiL(core.DefaultOrdered(p)), nil
	}
	return nil, fmt.Errorf("experiment: thermal grid has no technique %q", tech)
}

// Protection modes: the package's reactive duty-cycle throttle alone, or
// the thermal-headroom governor ahead of it.
const (
	modeThrottle = "throttle"
	modeGovernor = "governor"
)

func thermalModes() []string { return []string{modeThrottle, modeGovernor} }

// ThermalRecord condenses one thermal cell.
type ThermalRecord struct {
	// MeanPerf and MeanPower average the back half of the run. The usual
	// 15% steady tail is deliberately not used here: it is commensurate
	// with the duty-cycle throttle's heat/cool oscillation period, so it
	// would alias the oscillation phase instead of averaging over it.
	MeanPerf  float64
	MeanPower float64
	// MaxTempC is the hottest junction temperature seen.
	MaxTempC float64
	// ThrottleFrac is the fraction of the run spent duty-cycle throttled;
	// GovernedFrac the fraction the governor spent engaged.
	ThrottleFrac float64
	GovernedFrac float64
	// BreachSeconds is time spent above cap*1.03 (after the 1 s grace).
	BreachSeconds float64
}

// ThermalData is the thermal grid: technique -> environment -> mode.
type ThermalData struct {
	Cfg        Config
	Techniques []string
	Envs       []string
	Modes      []string
	Records    map[string]map[string]map[string]ThermalRecord
}

// runThermalGrid runs the full thermal grid: every technique in every
// environment under both protection modes.
func runThermalGrid(ctx context.Context, cfg Config, opts RunOpts) (*ThermalData, error) {
	return runThermal(ctx, cfg, opts, thermalTechniques(), thermalEnvs())
}

// runThermal executes the grid over an explicit technique/environment
// selection so tests can run cut-down grids.
func runThermal(ctx context.Context, cfg Config, opts RunOpts, techs []string, envs []thermalEnv) (*ThermalData, error) {
	d := &ThermalData{Cfg: cfg, Techniques: techs, Modes: thermalModes(), Records: map[string]map[string]map[string]ThermalRecord{}}
	for _, e := range envs {
		d.Envs = append(d.Envs, e.name)
	}

	type thermalKey struct {
		tech string
		env  thermalEnv
		mode string
	}
	var keys []thermalKey
	for _, tech := range techs {
		for _, e := range envs {
			for _, mode := range d.Modes {
				keys = append(keys, thermalKey{tech, e, mode})
			}
		}
	}
	results, err := runGrid(ctx, opts, "thermal sweep", keys,
		func(k thermalKey) string { return fmt.Sprintf("thermal/%s/%s/%s", k.tech, k.env.name, k.mode) },
		func(ctx context.Context, k thermalKey) (ThermalRecord, error) {
			return runThermalCell(ctx, cfg, k.tech, k.env, k.mode)
		})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		put3(d.Records, k.tech, k.env.name, k.mode, results[i])
	}
	return d, nil
}

// runThermalCell executes one technique in one environment under one
// protection mode.
func runThermalCell(ctx context.Context, cfg Config, tech string, e thermalEnv, mode string) (ThermalRecord, error) {
	plat := e.platform()
	ctrl, err := thermalController(tech, plat)
	if err != nil {
		return ThermalRecord{}, err
	}
	prof, err := workload.ByName(thermalBenchmark)
	if err != nil {
		return ThermalRecord{}, err
	}
	sc := driver.Scenario{
		Platform:   plat,
		Specs:      []workload.Spec{{Profile: prof, Threads: thermalThreads}},
		CapWatts:   thermalCap,
		Controller: ctrl,
		Duration:   thermalDuration(cfg),
		Seed:       cfg.Seed ^ seedFor("thermal", tech, e.name, mode),
	}
	if mode == modeGovernor {
		sc.ThermalGovernor = driver.DefaultThermalGovernor()
	}
	res, err := driver.RunContext(ctx, sc)
	if err != nil {
		return ThermalRecord{}, err
	}
	half := sc.Duration / 2
	return ThermalRecord{
		MeanPerf:      res.PerfTrace.MeanBetween(half, sc.Duration+1),
		MeanPower:     res.TruePower.MeanBetween(half, sc.Duration+1),
		MaxTempC:      res.MaxTempC,
		ThrottleFrac:  res.ThermalThrottleFrac,
		GovernedFrac:  res.ThermalGovernedFrac,
		BreachSeconds: res.BreachSeconds,
	}, nil
}

// tableThermalFrom renders the thermal comparison table.
func tableThermalFrom(d *ThermalData) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Thermal: duty-cycle throttle vs headroom governor, %s x%d, %.0fW cap", thermalBenchmark, thermalThreads, thermalCap),
		"Environment", "Technique",
		"Throttle perf", "Governor perf",
		"Throttle Tmax (C)", "Governor Tmax (C)",
		"Throttled frac", "Governed frac")
	for _, env := range d.Envs {
		for _, tech := range d.Techniques {
			th := d.Records[tech][env][modeThrottle]
			gov := d.Records[tech][env][modeGovernor]
			t.AddRow(env, tech,
				report.F(th.MeanPerf, 2), report.F(gov.MeanPerf, 2),
				report.F(th.MaxTempC, 1), report.F(gov.MaxTempC, 1),
				report.F(th.ThrottleFrac, 3), report.F(gov.GovernedFrac, 3))
		}
	}
	return t
}
