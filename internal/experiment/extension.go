package experiment

import (
	"context"
	"fmt"

	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/metrics"
	"pupil/internal/report"
	"pupil/internal/workload"
)

// easKey is one cell of the EAS grid: plain PUPiL or PUPiL-EAS on one
// oblivious mix at one cap.
type easKey struct {
	mix     string
	capW    float64
	variant string
	specs   []workload.Spec
	weights []float64
}

// ExtensionEASOpts quantifies the PUPiL-EAS extension (the paper's Section 6
// future work) against plain PUPiL on the oblivious mixes at moderate and
// loose caps — the regime where the global walk can get stuck keeping both
// sockets and only per-application pinning isolates the polluter. Runs
// execute on a bounded worker pool.
func ExtensionEASOpts(ctx context.Context, cfg Config, opts RunOpts) (*report.Table, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	// The pathological mixes (5-8) and the mixed sets (9-12): in the
	// latter, the scalable co-runners keep the global walk on both
	// sockets, so only per-application pinning can isolate the polluter.
	mixNames := []string{"mix5", "mix6", "mix7", "mix8", "mix9", "mix10", "mix11", "mix12"}
	if cfg.Quick {
		mixNames = []string{"mix7", "mix12"}
	}
	caps := []float64{140, 220}
	mixes := make([]workload.Mix, len(mixNames))
	for i, name := range mixNames {
		if mixes[i], err = workload.MixByName(name); err != nil {
			return nil, err
		}
	}
	if err := h.warmAlone(ctx, opts, "EAS isolated rates", mixes, 32); err != nil {
		return nil, err
	}

	// One cell per mix x cap x {PUPiL, PUPiL-EAS}.
	variants := []string{"pupil", "eas"}
	var keys []easKey
	for _, mix := range mixes {
		specs, weights, err := h.mixInputs(mix, 32)
		if err != nil {
			return nil, err
		}
		for _, capW := range caps {
			for _, v := range variants {
				keys = append(keys, easKey{mix.Name, capW, v, specs, weights})
			}
		}
	}
	speedups, err := runGrid(ctx, opts, "EAS sweep", keys,
		func(k easKey) string { return fmt.Sprintf("eas/%s/%s/%.0fW", k.variant, k.mix, k.capW) },
		func(ctx context.Context, k easKey) (float64, error) {
			var ctrl core.Controller = core.NewPUPiL(core.DefaultOrdered(h.plat))
			if k.variant == "eas" {
				ctrl = core.NewPUPiLEAS(core.DefaultOrdered(h.plat))
			}
			res, err := driver.RunContext(ctx, driver.Scenario{
				Platform:    h.plat,
				Specs:       k.specs,
				CapWatts:    k.capW,
				Controller:  ctrl,
				Duration:    h.cfg.Duration(TechPUPiL) + 30*1e9, // extra time for the pinning phase
				Seed:        h.cfg.Seed ^ seedFor("eas", k.mix, fmt.Sprintf("%.0f", k.capW)),
				PerfWeights: k.weights,
			})
			if err != nil {
				return 0, err
			}
			return metrics.WeightedSpeedup(res.SteadyRates, k.weights), nil
		})
	if err != nil {
		return nil, err
	}
	ws := map[string]map[float64]map[string]float64{}
	for i, k := range keys {
		put3(ws, k.mix, k.capW, k.variant, speedups[i])
	}

	cols := []string{"Mix"}
	for _, capW := range caps {
		cols = append(cols, fmt.Sprintf("PUPiL@%.0fW", capW), fmt.Sprintf("EAS@%.0fW", capW),
			fmt.Sprintf("gain@%.0fW", capW))
	}
	t := report.NewTable("Extension: PUPiL-EAS vs PUPiL weighted speedup (oblivious)", cols...)

	gains := map[float64][]float64{}
	for _, mixName := range mixNames {
		row := []string{mixName}
		for _, capW := range caps {
			pupilWS, easWS := ws[mixName][capW]["pupil"], ws[mixName][capW]["eas"]
			gain := 0.0
			if pupilWS > 0 {
				gain = easWS / pupilWS
			}
			gains[capW] = append(gains[capW], gain)
			row = append(row, report.F(pupilWS, 2), report.F(easWS, 2), report.F(gain, 2))
		}
		t.AddRow(row...)
	}
	hm := []string{"Harm.Mean"}
	for _, capW := range caps {
		hm = append(hm, "", "", report.F(metrics.HarmonicMean(gains[capW]), 2))
	}
	t.AddRow(hm...)
	return t, nil
}
