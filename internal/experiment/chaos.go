package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/driver"
	"pupil/internal/faults"
	"pupil/internal/report"
	"pupil/internal/workload"
)

// The chaos experiment is the robustness counterpart of the paper's Section
// 7.3 argument: pure-software capping has no safety net when its sensors,
// actuators, or decision loop misbehave, while the hybrid inherits
// hardware's enforcement no matter what the software layer does. Each cell
// runs one capping variant under one deterministic fault profile on a
// workload that shifts mid-run from a memory-bound, low-power benchmark
// (STREAM) to an embarrassingly parallel, power-hungry one
// (blackscholes) — the shift is what turns a frozen or misled software
// decision into a live cap breach.

// chaosCap is the machine cap every chaos cell enforces.
const chaosCap = 140.0

// chaosThreads matches the single-application sweeps.
const chaosThreads = 32

// chaosDuration, chaosShiftAt and chaosOnset scale the scenario.
func chaosDuration(cfg Config) time.Duration {
	if cfg.Quick {
		return 24 * time.Second
	}
	return 45 * time.Second
}

func chaosShiftAt(cfg Config) time.Duration {
	if cfg.Quick {
		return 8 * time.Second
	}
	return 12 * time.Second
}

func chaosOnset(cfg Config) time.Duration {
	if cfg.Quick {
		return 1500 * time.Millisecond
	}
	return 2 * time.Second
}

// chaosSpecs builds the shifting workload.
func chaosSpecs(cfg Config) ([]workload.Spec, error) {
	from, err := workload.ByName("STREAM")
	if err != nil {
		return nil, err
	}
	to, err := workload.ByName("blackscholes")
	if err != nil {
		return nil, err
	}
	return []workload.Spec{{
		Profile: from,
		Threads: chaosThreads,
		Shift:   &workload.ProfileShift{At: chaosShiftAt(cfg), Profile: to},
	}}, nil
}

// chaosVariant is one capping approach under test.
type chaosVariant struct {
	name     string
	tech     string
	watchdog bool
}

// chaosVariants lists the points of comparison: the paper's representative
// hardware, software, and hybrid techniques, plus the hybrid with the
// supervision layer armed.
func chaosVariants() []chaosVariant {
	return []chaosVariant{
		{name: TechRAPL, tech: TechRAPL},
		{name: TechSoftDVFS, tech: TechSoftDVFS},
		{name: TechSoftModeling, tech: TechSoftModeling},
		{name: TechPUPiL, tech: TechPUPiL},
		{name: "PUPiL+WD", tech: TechPUPiL, watchdog: true},
	}
}

// chaosProfile is one named fault profile.
type chaosProfile struct {
	name   string
	faults faults.Profile
}

// chaosProfiles builds the fault menu. Every profile is deterministic:
// onsets are fixed, and any randomness inside a fault draws from the run's
// forked fault stream.
func chaosProfiles(cfg Config) []chaosProfile {
	onset := chaosOnset(cfg)
	// "Forever" relative to the run.
	hold := 10 * time.Minute
	wrongAt := chaosShiftAt(cfg) + 2*time.Second
	wrongFor := 15 * time.Second
	if cfg.Quick {
		wrongFor = 8 * time.Second
	}
	return []chaosProfile{
		{name: "none"},
		{name: "ctrl-stall", faults: faults.Profile{{
			Kind: faults.KindStall, Target: faults.TargetController,
			Onset: onset, Duration: hold, Magnitude: 1,
		}}},
		{name: "power-stuck", faults: faults.Profile{{
			Kind: faults.KindStuck, Target: faults.TargetPowerSensor,
			Onset: onset, Duration: hold, Magnitude: 1,
		}}},
		{name: "act-ignore", faults: faults.Profile{{
			Kind: faults.KindIgnore, Target: faults.TargetConfig,
			Onset: onset, Duration: hold, Magnitude: 1,
		}}},
		{name: "rapl-wrong", faults: faults.Profile{{
			Kind: faults.KindMisprogram, Target: faults.TargetRAPLCap,
			Onset: wrongAt, Duration: wrongFor, Magnitude: 1.4,
		}}},
	}
}

// ChaosRecord condenses one chaos cell.
type ChaosRecord struct {
	// BreachSeconds is time spent above cap*1.03 (after the 1 s grace).
	BreachSeconds float64
	// SteadyPerf and SteadyPower average the tail of the run — after the
	// workload shift and (for most profiles) well inside the fault.
	SteadyPerf  float64
	SteadyPower float64
	// Degradations counts supervision transitions; FinalLevel is the
	// ladder rung at the end of the run ("normal" without a watchdog).
	Degradations int
	FinalLevel   string
	// Panics counts controller panics swallowed by the supervision layer.
	Panics int
}

// ChaosData is the chaos grid: variant -> profile -> record.
type ChaosData struct {
	Cfg      Config
	Variants []string
	Profiles []string
	Records  map[string]map[string]ChaosRecord
}

// runChaosGrid runs the full chaos grid: every variant under every fault
// profile.
func runChaosGrid(ctx context.Context, cfg Config, opts RunOpts) (*ChaosData, error) {
	return runChaos(ctx, cfg, opts, chaosVariants(), chaosProfiles(cfg))
}

// runChaos executes the grid over an explicit variant/profile selection so
// tests can run cut-down grids.
func runChaos(ctx context.Context, cfg Config, opts RunOpts, variants []chaosVariant, profiles []chaosProfile) (*ChaosData, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	d := &ChaosData{Cfg: cfg, Records: map[string]map[string]ChaosRecord{}}
	for _, v := range variants {
		d.Variants = append(d.Variants, v.name)
	}
	for _, p := range profiles {
		d.Profiles = append(d.Profiles, p.name)
	}

	type chaosKey struct {
		v chaosVariant
		p chaosProfile
	}
	var keys []chaosKey
	for _, v := range variants {
		for _, p := range profiles {
			keys = append(keys, chaosKey{v, p})
		}
	}
	results, err := runGrid(ctx, opts, "chaos sweep", keys,
		func(k chaosKey) string { return fmt.Sprintf("chaos/%s/%s", k.v.name, k.p.name) },
		func(ctx context.Context, k chaosKey) (ChaosRecord, error) { return h.runChaosCell(ctx, cfg, k.v, k.p) })
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		put2(d.Records, k.v.name, k.p.name, results[i])
	}
	return d, nil
}

// runChaosCell executes one variant under one fault profile.
func (h *harness) runChaosCell(ctx context.Context, cfg Config, v chaosVariant, p chaosProfile) (ChaosRecord, error) {
	ctrl, err := h.controller(v.tech)
	if err != nil {
		return ChaosRecord{}, err
	}
	specs, err := chaosSpecs(cfg)
	if err != nil {
		return ChaosRecord{}, err
	}
	sc := driver.Scenario{
		Platform:   h.plat,
		Specs:      specs,
		CapWatts:   chaosCap,
		Controller: ctrl,
		Duration:   chaosDuration(cfg),
		Seed:       h.cfg.Seed ^ seedFor("chaos", v.name, p.name),
		Faults:     p.faults,
	}
	if v.watchdog {
		sc.Watchdog = driver.DefaultWatchdog()
	}
	res, err := driver.RunContext(ctx, sc)
	if err != nil {
		return ChaosRecord{}, err
	}
	return ChaosRecord{
		BreachSeconds: res.BreachSeconds,
		SteadyPerf:    res.SteadyTotal(),
		SteadyPower:   res.SteadyPower,
		Degradations:  len(res.Degradations),
		FinalLevel:    res.FinalDegradeLevel.String(),
		Panics:        res.ControllerPanics,
	}, nil
}

// tablesChaosFrom renders the three chaos tables: cap-violation time,
// steady performance, and the watchdog's view, each profile x variant.
func tablesChaosFrom(d *ChaosData) []*report.Table {
	breach := report.NewTable(
		"Chaos: cap-violation time (s) under injected faults, 140W cap, STREAM->blackscholes shift",
		append([]string{"Fault"}, d.Variants...)...)
	perf := report.NewTable(
		"Chaos: steady performance (heartbeats/s) under injected faults",
		append([]string{"Fault"}, d.Variants...)...)
	for _, p := range d.Profiles {
		rowB := []string{p}
		rowP := []string{p}
		for _, v := range d.Variants {
			rec := d.Records[v][p]
			rowB = append(rowB, report.F(rec.BreachSeconds, 2))
			rowP = append(rowP, report.F(rec.SteadyPerf, 2))
		}
		breach.AddRow(rowB...)
		perf.AddRow(rowP...)
	}

	dog := report.NewTable(
		"Chaos: supervision ladder (PUPiL+WD)",
		"Fault", "Transitions", "Final level", "Breach s", "Steady perf")
	for _, p := range d.Profiles {
		rec, ok := d.Records["PUPiL+WD"][p]
		if !ok {
			continue
		}
		dog.AddRow(p, fmt.Sprintf("%d", rec.Degradations), rec.FinalLevel,
			report.F(rec.BreachSeconds, 2), report.F(rec.SteadyPerf, 2))
	}
	return []*report.Table{breach, perf, dog}
}
