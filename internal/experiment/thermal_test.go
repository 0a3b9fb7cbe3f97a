package experiment

import (
	"context"
	"testing"
)

// thermalRec is shorthand for one quick-grid thermal cell.
func thermalRec(t *testing.T, d *ThermalData, tech, env, mode string) ThermalRecord {
	t.Helper()
	r, ok := d.Records[tech][env][mode]
	if !ok {
		t.Fatalf("thermal grid missing %s/%s/%s", tech, env, mode)
	}
	return r
}

// TestThermalGovernorWinsWhenBound is the acceptance criterion of the
// thermal campaign: wherever the junction (not the cap) is the binding
// constraint, the pre-emptive headroom governor delivers strictly more
// steady performance than the package's reactive duty-cycle throttle,
// while holding the junction at or below the trip point.
func TestThermalGovernorWinsWhenBound(t *testing.T) {
	d, err := thermalGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tableThermalFrom(d).String())

	const tjMax = 95.0
	for _, tech := range d.Techniques {
		for _, env := range []string{"hot-aisle", "choked-airflow"} {
			th := thermalRec(t, d, tech, env, modeThrottle)
			gov := thermalRec(t, d, tech, env, modeGovernor)
			if th.ThrottleFrac < 0.05 {
				t.Errorf("%s/%s: duty throttle engaged only %.1f%% of the run; the environment should be thermally binding",
					tech, env, th.ThrottleFrac*100)
			}
			if gov.MeanPerf <= th.MeanPerf {
				t.Errorf("%s/%s: governor perf %.2f should beat duty-cycle %.2f",
					tech, env, gov.MeanPerf, th.MeanPerf)
			}
			if gov.MaxTempC > tjMax+0.5 {
				t.Errorf("%s/%s: governed junction peaked at %.2f C, want <= TjMax %.0f + 0.5",
					tech, env, gov.MaxTempC, tjMax)
			}
			if gov.GovernedFrac == 0 {
				t.Errorf("%s/%s: governor never engaged in a thermally bound environment", tech, env)
			}
		}
	}
}

// TestThermalCapStillEnforced: thermal protection composes with power
// capping — leakage and throttling never become a path around the RAPL
// cap in any cell.
func TestThermalCapStillEnforced(t *testing.T) {
	d, err := thermalGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range d.Techniques {
		for _, env := range d.Envs {
			for _, mode := range d.Modes {
				if b := thermalRec(t, d, tech, env, mode).BreachSeconds; b > 0.5 {
					t.Errorf("%s/%s/%s spent %.2f s above the cap", tech, env, mode, b)
				}
			}
		}
	}
}

// TestThermalMiniGridExplicitSelection exercises runThermal's cut-down
// selection path (the one CI runs under -race in short mode): one
// technique in the hot aisle, both protection modes, bypassing the memo.
func TestThermalMiniGridExplicitSelection(t *testing.T) {
	cfg := quickCfg()
	envs := thermalEnvs()[1:2] // hot-aisle
	d, err := runThermal(context.Background(), cfg, RunOpts{Parallel: 2}, []string{TechRAPL}, envs)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Techniques) != 1 || len(d.Envs) != 1 || len(d.Modes) != 2 {
		t.Fatalf("mini grid = %d techniques x %d envs x %d modes", len(d.Techniques), len(d.Envs), len(d.Modes))
	}
	th := thermalRec(t, d, TechRAPL, "hot-aisle", modeThrottle)
	gov := thermalRec(t, d, TechRAPL, "hot-aisle", modeGovernor)
	if gov.MeanPerf <= th.MeanPerf {
		t.Errorf("mini grid: governor perf %.2f should beat duty-cycle %.2f", gov.MeanPerf, th.MeanPerf)
	}
}

// TestThermalMemoized documents the memo contract for the thermal grid.
func TestThermalMemoized(t *testing.T) {
	ctx := context.Background()
	a, err := thermalGrid.get(ctx, quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := thermalGrid.get(ctx, quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-config thermal grids were not memoized")
	}
}
