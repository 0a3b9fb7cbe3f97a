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
	"pupil/internal/telemetry"
)

// SensitivityRow is one noise level's outcome across caps.
type SensitivityRow struct {
	Label string
	// Normalized indexes cap -> PUPiL performance normalized to Optimal.
	Normalized map[float64]float64
	// Violations indexes cap -> fraction of over-cap samples.
	Violations map[float64]float64
}

// SensitivityOpts reproduces the sensitivity analysis (Section 5.6) on a
// bounded worker pool: PUPiL's converged efficiency and cap compliance as
// sensor noise grows from none to an order of magnitude beyond the default.
// A feedback-filtered decision framework should degrade gracefully — results
// account for the overhead and noise of the capping system itself.
func SensitivityOpts(ctx context.Context, cfg Config, opts RunOpts) ([]SensitivityRow, *report.Table, error) {
	plat := machine.E52690Server()
	caps := cfg.Caps()
	levels := []struct {
		label string
		noise *telemetry.NoiseSpec
	}{
		{"no noise", &telemetry.NoiseSpec{}},
		{"default", nil},
		{"3x noise", &telemetry.NoiseSpec{RelStdDev: 0.09, OutlierProb: 0.03, OutlierMag: 0.6}},
		{"10x noise", &telemetry.NoiseSpec{RelStdDev: 0.30, OutlierProb: 0.10, OutlierMag: 0.6}},
	}

	dur := 60 * time.Second
	if cfg.Quick {
		dur = 30 * time.Second
	}
	const app = "bodytrack"

	// Stage 1: the per-cap Optimal normalizations (level-independent).
	optRates, err := runGrid(ctx, opts, "sensitivity oracle", caps,
		func(capW float64) string { return fmt.Sprintf("optimal/%.0fW", capW) },
		func(_ context.Context, capW float64) (float64, error) {
			_, apps, err := instances(app, singleAppThreads)
			if err != nil {
				return 0, err
			}
			_, optEval, ok := control.OptimalSearch(plat, apps, capW, control.TotalRate)
			if !ok {
				return 0, fmt.Errorf("no feasible config at %.0f W", capW)
			}
			return optEval.TotalRate(), nil
		})
	if err != nil {
		return nil, nil, err
	}
	opt := map[float64]float64{}
	for i, capW := range caps {
		opt[capW] = optRates[i]
	}

	// Stage 2: one PUPiL run per noise level x cap.
	type sensitivityKey struct {
		level int
		capW  float64
	}
	rows := make([]SensitivityRow, len(levels))
	var keys []sensitivityKey
	for i, lv := range levels {
		rows[i] = SensitivityRow{Label: lv.label, Normalized: map[float64]float64{}, Violations: map[float64]float64{}}
		for _, capW := range caps {
			keys = append(keys, sensitivityKey{i, capW})
		}
	}
	type cellOut struct{ normalized, violations float64 }
	results, err := runGrid(ctx, opts, "sensitivity sweep", keys,
		func(k sensitivityKey) string {
			return fmt.Sprintf("sensitivity/%s/%.0fW", levels[k.level].label, k.capW)
		},
		func(ctx context.Context, k sensitivityKey) (cellOut, error) {
			specs, _, err := instances(app, singleAppThreads)
			if err != nil {
				return cellOut{}, err
			}
			res, err := driver.RunContext(ctx, driver.Scenario{
				Platform:   plat,
				Specs:      specs,
				CapWatts:   k.capW,
				Controller: core.NewPUPiL(core.DefaultOrdered(plat)),
				Duration:   dur,
				Seed:       cfg.Seed ^ seedFor("sensitivity", levels[k.level].label, fmt.Sprintf("%.0f", k.capW)),
				PerfNoise:  levels[k.level].noise,
			})
			if err != nil {
				return cellOut{}, err
			}
			return cellOut{res.SteadyTotal() / opt[k.capW], res.ViolationFrac}, nil
		})
	if err != nil {
		return nil, nil, err
	}
	for i, k := range keys {
		rows[k.level].Normalized[k.capW] = results[i].normalized
		rows[k.level].Violations[k.capW] = results[i].violations
	}

	cols := []string{"Perf sensor noise"}
	for _, capW := range caps {
		cols = append(cols, fmt.Sprintf("%.0fW", capW), fmt.Sprintf("viol@%.0fW", capW))
	}
	t := report.NewTable("Sensitivity: PUPiL normalized performance vs sensor noise (Section 5.6)", cols...)
	for _, row := range rows {
		cells := []string{row.Label}
		for _, capW := range caps {
			cells = append(cells, report.F(row.Normalized[capW], 2),
				report.F(row.Violations[capW]*100, 1)+"%")
		}
		t.AddRow(cells...)
	}
	return rows, t, nil
}
