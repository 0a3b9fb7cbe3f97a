package experiment

import (
	"context"
	"fmt"

	"pupil/internal/metrics"
	"pupil/internal/report"
	"pupil/internal/workload"
)

// Multi-application scenarios (Section 5.4): cooperative workloads launch
// each application with 8 threads so total threads equal the 32 virtual
// cores; oblivious workloads launch each with all 32, for 128 runnable
// threads.
const (
	ScenarioCooperative = "cooperative"
	ScenarioOblivious   = "oblivious"
)

// Scenarios lists the two multi-application modes.
func Scenarios() []string { return []string{ScenarioCooperative, ScenarioOblivious} }

func scenarioThreads(scenario string) int {
	if scenario == ScenarioOblivious {
		return 32
	}
	return 8
}

// MultiAppData is the shared multi-application sweep: the 12 mixes of
// Table 4 under every cap in both scenarios, for RAPL and PUPiL.
type MultiAppData struct {
	Cfg   Config
	Caps  []float64
	Mixes []workload.Mix
	// Records indexes scenario -> tech -> cap -> mix name.
	Records map[string]map[string]map[float64]map[string]Record
	// Alone indexes scenario -> benchmark name -> isolated rate (at the
	// scenario's thread count), the weighted-speedup normalization.
	Alone map[string]map[string]float64
}

// multiAppTechs are the techniques the paper evaluates on mixes.
func multiAppTechs() []string { return []string{TechRAPL, TechPUPiL} }

// MultiAppSweep runs (or returns the memoized) multi-application grid with
// default execution options.
//
// The returned *MultiAppData is shared: every caller with the same Config
// receives the same instance, so it must be treated as read-only. Results
// are identical for a given Config at any parallelism.
func MultiAppSweep(cfg Config) (*MultiAppData, error) {
	return multiGrid.get(context.Background(), cfg, RunOpts{})
}

// multiKey is one cell of the multi-application grid, carrying its mix's
// inputs at the scenario's thread count.
type multiKey struct {
	scenario string
	mix      workload.Mix
	capW     float64
	tech     string
	specs    []workload.Spec
	weights  []float64
}

// runMultiAppSweep always executes the grid (no memo) in two stages: the
// isolated-rate normalizations (each an Optimal oracle search, so they join
// the same worker pool), then every scenario x mix x cap x technique run.
func runMultiAppSweep(ctx context.Context, cfg Config, opts RunOpts) (*MultiAppData, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	mixes := workload.Mixes()
	if cfg.Quick {
		mixes = []workload.Mix{mixes[1], mixes[7], mixes[11]} // mix2, mix8, mix12
	}
	d := &MultiAppData{
		Cfg:     cfg,
		Caps:    cfg.Caps(),
		Mixes:   mixes,
		Records: map[string]map[string]map[float64]map[string]Record{},
		Alone:   map[string]map[string]float64{},
	}
	var threads []int
	for _, scenario := range Scenarios() {
		threads = append(threads, scenarioThreads(scenario))
	}
	if err := h.warmAlone(ctx, opts, "multi-app isolated rates", d.Mixes, threads...); err != nil {
		return nil, err
	}

	var keys []multiKey
	for _, scenario := range Scenarios() {
		d.Records[scenario] = map[string]map[float64]map[string]Record{}
		for _, mix := range d.Mixes {
			specs, weights, err := h.mixInputs(mix, scenarioThreads(scenario))
			if err != nil {
				return nil, err
			}
			for i, name := range mix.Names {
				put2(d.Alone, scenario, name, weights[i])
			}
			for _, capW := range d.Caps {
				for _, tech := range multiAppTechs() {
					keys = append(keys, multiKey{scenario, mix, capW, tech, specs, weights})
				}
			}
		}
	}
	records, err := runGrid(ctx, opts, "multi-app sweep", keys,
		func(k multiKey) string {
			return fmt.Sprintf("%s/%s/%s/%.0fW", k.scenario, k.tech, k.mix.Name, k.capW)
		},
		func(ctx context.Context, k multiKey) (Record, error) {
			return h.run(ctx, k.tech, k.specs, k.capW, k.weights,
				seedFor(k.scenario, k.tech, k.mix.Name, fmt.Sprintf("%.0f", k.capW)))
		})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		put3(d.Records[k.scenario], k.tech, k.capW, k.mix.Name, records[i])
	}
	return d, nil
}

// WeightedSpeedup computes a run's weighted speedup against the
// scenario's isolated rates.
func (d *MultiAppData) WeightedSpeedup(scenario, tech string, capW float64, mix workload.Mix) float64 {
	rec := d.Records[scenario][tech][capW][mix.Name]
	ws := 0.0
	for i, name := range mix.Names {
		if i < len(rec.SteadyRates) {
			if alone := d.Alone[scenario][name]; alone > 0 {
				ws += rec.SteadyRates[i] / alone
			}
		}
	}
	return ws
}

// Ratio returns PUPiL's weighted speedup over RAPL's for one cell of
// Fig. 6.
func (d *MultiAppData) Ratio(scenario string, capW float64, mix workload.Mix) float64 {
	rapl := d.WeightedSpeedup(scenario, TechRAPL, capW, mix)
	pupil := d.WeightedSpeedup(scenario, TechPUPiL, capW, mix)
	if rapl <= 0 {
		return 0
	}
	return pupil / rapl
}

// EfficiencyRatio returns PUPiL's performance-per-Watt over RAPL's for one
// cell of Fig. 8.
func (d *MultiAppData) EfficiencyRatio(scenario string, capW float64, mix workload.Mix) float64 {
	raplRec := d.Records[scenario][TechRAPL][capW][mix.Name]
	pupilRec := d.Records[scenario][TechPUPiL][capW][mix.Name]
	rapl := metrics.Efficiency(d.WeightedSpeedup(scenario, TechRAPL, capW, mix), raplRec.SteadyPower)
	pupil := metrics.Efficiency(d.WeightedSpeedup(scenario, TechPUPiL, capW, mix), pupilRec.SteadyPower)
	if rapl <= 0 {
		return 0
	}
	return pupil / rapl
}

// Table4 renders the mix definitions.
func Table4() *report.Table {
	t := report.NewTable("Table 4: Multi-application Workloads", "Name", "Benchmarks")
	for _, m := range workload.Mixes() {
		row := m.Name
		list := ""
		for i, n := range m.Names {
			if i > 0 {
				list += " "
			}
			list += n
		}
		t.AddRow(row, list)
	}
	return t
}

// Table5 renders the harmonic-mean PUPiL:RAPL performance ratio per cap
// for both scenarios.
func Table5(cfg Config) (*report.Table, error) { return rendered(multiGrid, cfg, table5From) }

func table5From(d *MultiAppData) *report.Table {
	means := table5Means(d)
	t := report.NewTable("Table 5: Ratio of PUPiL to RAPL Performance",
		"Power Cap", "Cooperative", "Oblivious")
	for _, capW := range d.Caps {
		row := []string{fmt.Sprintf("%.0fW", capW)}
		for _, scenario := range Scenarios() {
			row = append(row, report.F(means[scenario][capW], 2))
		}
		t.AddRow(row...)
	}
	return t
}

// Table5Means returns the per-cap mean ratios per scenario, for assertions.
func Table5Means(cfg Config) (map[string]map[float64]float64, error) {
	return rendered(multiGrid, cfg, table5Means)
}

func table5Means(d *MultiAppData) map[string]map[float64]float64 {
	out := map[string]map[float64]float64{}
	for _, scenario := range Scenarios() {
		out[scenario] = map[float64]float64{}
		for _, capW := range d.Caps {
			var ratios []float64
			for _, mix := range d.Mixes {
				ratios = append(ratios, d.Ratio(scenario, capW, mix))
			}
			out[scenario][capW] = metrics.HarmonicMean(ratios)
		}
	}
	return out
}

// Fig6 renders the per-mix PUPiL:RAPL performance ratios, one table per
// scenario with caps as columns.
func Fig6(cfg Config) ([]*report.Table, error) { return rendered(multiGrid, cfg, fig6From) }

func fig6From(d *MultiAppData) []*report.Table { return ratioTables(d, "Fig 6", d.Ratio) }

// Fig8 renders the per-mix PUPiL:RAPL energy-efficiency ratios.
func Fig8(cfg Config) ([]*report.Table, error) { return rendered(multiGrid, cfg, fig8From) }

func fig8From(d *MultiAppData) []*report.Table { return ratioTables(d, "Fig 8", d.EfficiencyRatio) }

func ratioTables(d *MultiAppData, label string, cell func(string, float64, workload.Mix) float64) []*report.Table {
	var out []*report.Table
	for _, scenario := range Scenarios() {
		cols := []string{"Mix"}
		for _, capW := range d.Caps {
			cols = append(cols, fmt.Sprintf("%.0fW", capW))
		}
		t := report.NewTable(fmt.Sprintf("%s (%s): PUPiL / RAPL", label, scenario), cols...)
		for _, mix := range d.Mixes {
			row := []string{mix.Name}
			for _, capW := range d.Caps {
				row = append(row, report.F(cell(scenario, capW, mix), 2))
			}
			t.AddRow(row...)
		}
		hm := []string{"Harm.Mean"}
		for _, capW := range d.Caps {
			var ratios []float64
			for _, mix := range d.Mixes {
				ratios = append(ratios, cell(scenario, capW, mix))
			}
			hm = append(hm, report.F(metrics.HarmonicMean(ratios), 2))
		}
		t.AddRow(hm...)
		out = append(out, t)
	}
	return out
}

// Table6Mixes are the three mixes the paper inspects with VTune.
func Table6Mixes() []string { return []string{"mix7", "mix8", "mix12"} }

// Table6 renders spin cycles and achieved memory bandwidth for the mixes
// where PUPiL's advantage is largest, under the oblivious scenario at the
// 140 W cap.
func Table6(cfg Config) (*report.Table, error) { return rendered(multiGrid, cfg, table6From) }

func table6From(d *MultiAppData) *report.Table {
	t := report.NewTable("Table 6: PUPiL and RAPL Multiapp Low-Level Counters (oblivious, 140W)",
		"Workload", "Spin% RAPL", "Spin% PUPiL", "BW RAPL (GB/s)", "BW PUPiL (GB/s)")
	const capW = 140.0
	for _, name := range Table6Mixes() {
		raplRec, okR := d.Records[ScenarioOblivious][TechRAPL][capW][name]
		pupilRec, okP := d.Records[ScenarioOblivious][TechPUPiL][capW][name]
		if !okR || !okP {
			continue // quick mode may omit a mix
		}
		t.AddRow(name,
			report.F(raplRec.Eval.SpinFrac*100, 1),
			report.F(pupilRec.Eval.SpinFrac*100, 2),
			report.F(raplRec.Eval.MemBWGBs, 1),
			report.F(pupilRec.Eval.MemBWGBs, 1))
	}
	return t
}
