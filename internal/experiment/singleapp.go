package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/control"
	"pupil/internal/machine"
	"pupil/internal/metrics"
	"pupil/internal/report"
	"pupil/internal/system"
)

// SingleAppData is the shared single-application sweep: every benchmark
// under every cap with every technique, plus the Optimal oracle — the raw
// material of Table 3 and Figures 3, 4, 5 and 7.
type SingleAppData struct {
	Cfg  Config
	Caps []float64
	Apps []string
	// Records indexes technique -> cap -> app.
	Records map[string]map[float64]map[string]Record
	// OptimalRate and OptimalPower index cap -> app.
	OptimalRate  map[float64]map[string]float64
	OptimalPower map[float64]map[string]float64
	// OptimalConfig indexes cap -> app: the oracle's winning resource
	// configuration per cell (the ground truth behind Fig. 5-style
	// analyses of where hardware-only capping leaves performance behind).
	OptimalConfig map[float64]map[string]machine.Config
	// Uncapped holds each app's ground-truth characterization at the max
	// configuration (Fig. 5's GIPS and bandwidth axes).
	Uncapped map[string]system.Eval
}

// singleAppThreads is the paper's single-application thread count: all
// benchmarks run with up to 32 threads, the hardware maximum.
const singleAppThreads = 32

// SingleAppSweep runs (or returns the memoized) single-application grid
// with default execution options. See SingleAppSweepOpts for the sharing
// contract on the returned data.
func SingleAppSweep(cfg Config) (*SingleAppData, error) {
	return SingleAppSweepOpts(context.Background(), cfg, RunOpts{})
}

// SingleAppSweepOpts runs (or returns the memoized) single-application grid
// on a bounded worker pool.
//
// The returned *SingleAppData is shared: every caller with the same Config
// receives the same instance, so it must be treated as read-only. Results
// are identical for a given Config at any parallelism.
func SingleAppSweepOpts(ctx context.Context, cfg Config, opts RunOpts) (*SingleAppData, error) {
	return singleGrid.get(ctx, cfg, opts)
}

// singleKey is one cell of the single-application grid: a technique run,
// or with an empty tech the Optimal oracle search, or with a zero cap the
// uncapped characterization.
type singleKey struct {
	app  string
	capW float64
	tech string
}

// singleOut holds exactly one of a single-application cell's results.
type singleOut struct {
	rec     Record
	optCfg  machine.Config
	optRate float64
	optPow  float64
	eval    system.Eval
}

// runSingleAppSweep always executes the grid (no memo): one cell per
// benchmark characterization, one per Optimal oracle search, and one per
// technique run.
func runSingleAppSweep(ctx context.Context, cfg Config, opts RunOpts) (*SingleAppData, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	d := &SingleAppData{
		Cfg:           cfg,
		Caps:          cfg.Caps(),
		Apps:          cfg.Apps(),
		Records:       map[string]map[float64]map[string]Record{},
		OptimalRate:   map[float64]map[string]float64{},
		OptimalPower:  map[float64]map[string]float64{},
		OptimalConfig: map[float64]map[string]machine.Config{},
		Uncapped:      map[string]system.Eval{},
	}
	var keys []singleKey
	for _, app := range d.Apps {
		keys = append(keys, singleKey{app: app})
		for _, capW := range d.Caps {
			keys = append(keys, singleKey{app: app, capW: capW})
			for _, tech := range Techniques() {
				keys = append(keys, singleKey{app, capW, tech})
			}
		}
	}
	results, err := runGrid(ctx, opts, "single-app sweep", keys, singleKey.label, h.runSingleCell)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		r := results[i]
		switch {
		case k.capW == 0:
			d.Uncapped[k.app] = r.eval
		case k.tech == "":
			put2(d.OptimalRate, k.capW, k.app, r.optRate)
			put2(d.OptimalPower, k.capW, k.app, r.optPow)
			put2(d.OptimalConfig, k.capW, k.app, r.optCfg)
		default:
			put3(d.Records, k.tech, k.capW, k.app, r.rec)
		}
	}
	return d, nil
}

// label names the cell in progress reports and errors.
func (k singleKey) label() string {
	switch {
	case k.capW == 0:
		return "uncapped/" + k.app
	case k.tech == "":
		return fmt.Sprintf("optimal/%s/%.0fW", k.app, k.capW)
	}
	return fmt.Sprintf("%s/%s/%.0fW", k.tech, k.app, k.capW)
}

// runSingleCell computes one cell of the single-application grid.
func (h *harness) runSingleCell(ctx context.Context, k singleKey) (singleOut, error) {
	specs, apps, err := instances(k.app, singleAppThreads)
	if err != nil {
		return singleOut{}, err
	}
	switch {
	case k.capW == 0:
		return singleOut{eval: system.Evaluate(h.plat, machine.MaxConfig(h.plat), apps, 0)}, nil
	case k.tech == "":
		optCfg, optEval, ok := control.OptimalSearch(h.plat, apps, k.capW, control.TotalRate)
		if !ok {
			return singleOut{}, fmt.Errorf("no feasible config for %s at %.0f W", k.app, k.capW)
		}
		return singleOut{optCfg: optCfg, optRate: optEval.TotalRate(), optPow: optEval.PowerTotal}, nil
	}
	rec, err := h.run(ctx, k.tech, specs, k.capW, nil, seedFor(k.tech, k.app, fmt.Sprintf("%.0f", k.capW)))
	return singleOut{rec: rec}, err
}

// Normalized returns a technique's steady performance normalized to
// Optimal for one cap and app (the y-axis of Fig. 3).
func (d *SingleAppData) Normalized(tech string, capW float64, app string) float64 {
	opt := d.OptimalRate[capW][app]
	if opt <= 0 {
		return 0
	}
	return d.Records[tech][capW][app].SteadyTotal() / opt
}

// NormalizedEfficiency returns performance-per-Watt normalized to
// Optimal's (the y-axis of Fig. 7).
func (d *SingleAppData) NormalizedEfficiency(tech string, capW float64, app string) float64 {
	rec := d.Records[tech][capW][app]
	opt := d.OptimalRate[capW][app]
	optP := d.OptimalPower[capW][app]
	if opt <= 0 || optP <= 0 || rec.SteadyPower <= 0 {
		return 0
	}
	return (rec.SteadyTotal() / rec.SteadyPower) / (opt / optP)
}

// feasible reports whether a technique has valid data at a cap, matching
// the paper's missing entries: Soft-DVFS cannot reach 60 W (even the lowest
// p-state violates), and Soft-Modeling's 60 W predictions violate the cap
// on ~70% of data points.
func (d *SingleAppData) feasible(tech string, capW float64) bool {
	if capW > 60 {
		return true
	}
	// Iterate apps in grid order, not map order: float accumulation must
	// be deterministic for rendered tables to be byte-identical.
	switch tech {
	case TechSoftDVFS:
		// Infeasible when the runs could not settle under the cap.
		settledAll := true
		for _, app := range d.Apps {
			if !d.Records[tech][capW][app].Settled {
				settledAll = false
			}
		}
		return settledAll
	case TechSoftModeling:
		// Excluded when violations dominate.
		viol, n := 0.0, 0
		for _, app := range d.Apps {
			viol += d.Records[tech][capW][app].ViolationFrac
			n++
		}
		return n == 0 || viol/float64(n) < 0.2
	}
	return true
}

// table3From renders the harmonic-mean normalized performance per cap and
// technique.
func table3From(d *SingleAppData) *report.Table {
	t := report.NewTable("Table 3: Comparison of Harmonic Mean Performance (normalized to optimal)",
		append([]string{"Power Cap"}, Techniques()...)...)
	for _, capW := range d.Caps {
		row := []string{fmt.Sprintf("%.0fW", capW)}
		for _, tech := range Techniques() {
			if !d.feasible(tech, capW) {
				row = append(row, "-")
				continue
			}
			var vals []float64
			for _, app := range d.Apps {
				vals = append(vals, d.Normalized(tech, capW, app))
			}
			row = append(row, report.F(metrics.HarmonicMean(vals), 2))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig3 renders per-application normalized performance, one table per cap.
func Fig3(cfg Config) ([]*report.Table, error) { return rendered(singleGrid, cfg, fig3From) }

func fig3From(d *SingleAppData) []*report.Table {
	return d.perCapTables("Fig 3 (%0.fW): performance normalized to optimal", Techniques(), d.Normalized)
}

// perCapTables renders one table per cap: a row per app plus the harmonic
// mean, a column per technique, each cell formatted from cell.
func (d *SingleAppData) perCapTables(title string, techs []string, cell func(tech string, capW float64, app string) float64) []*report.Table {
	var out []*report.Table
	for _, capW := range d.Caps {
		t := report.NewTable(fmt.Sprintf(title, capW), append([]string{"Benchmark"}, techs...)...)
		for _, app := range append(append([]string{}, d.Apps...), "Harm.Mean") {
			row := []string{app}
			for _, tech := range techs {
				if !d.feasible(tech, capW) {
					row = append(row, "-")
					continue
				}
				if app == "Harm.Mean" {
					var vals []float64
					for _, a := range d.Apps {
						vals = append(vals, cell(tech, capW, a))
					}
					row = append(row, report.F(metrics.HarmonicMean(vals), 2))
				} else {
					row = append(row, report.F(cell(tech, capW, app), 2))
				}
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

// Fig4Techs lists the techniques with online settling behaviour
// (Soft-Modeling is offline and has no settling time).
func Fig4Techs() []string {
	return []string{TechRAPL, TechSoftDVFS, TechSoftDecision, TechPUPiL}
}

// fig4From renders settling times (ms) per application at the 140 W cap,
// plus the cross-application average.
func fig4From(d *SingleAppData) *report.Table {
	const capW = 140.0
	t := report.NewTable("Fig 4: Settling time (ms) at the 140W cap",
		append([]string{"Benchmark"}, Fig4Techs()...)...)
	for _, app := range d.Apps {
		row := []string{app}
		for _, tech := range Fig4Techs() {
			rec := d.Records[tech][capW][app]
			if !rec.Settled {
				row = append(row, "unsettled")
				continue
			}
			row = append(row, report.F(float64(rec.Settling)/float64(time.Millisecond), 0))
		}
		t.AddRow(row...)
	}
	avgs := fig4Averages(d)
	avg := []string{"Average"}
	for _, tech := range Fig4Techs() {
		v, ok := avgs[tech]
		if !ok {
			avg = append(avg, "-")
			continue
		}
		avg = append(avg, report.F(v, 0))
	}
	t.AddRow(avg...)
	return t
}

// Fig4Averages returns mean settling in milliseconds per technique, for
// assertions and summaries.
func Fig4Averages(cfg Config) (map[string]float64, error) {
	return rendered(singleGrid, cfg, fig4Averages)
}

func fig4Averages(d *SingleAppData) map[string]float64 {
	const capW = 140.0
	out := map[string]float64{}
	for _, tech := range Fig4Techs() {
		sum, n := 0.0, 0
		for _, app := range d.Apps {
			rec := d.Records[tech][capW][app]
			if rec.Settled {
				sum += float64(rec.Settling) / float64(time.Millisecond)
				n++
			}
		}
		if n > 0 {
			out[tech] = sum / float64(n)
		}
	}
	return out
}

// Fig5Row is one benchmark's characterization point.
type Fig5Row struct {
	App      string
	GIPS     float64
	MemBWGBs float64
	// RAPLNearOptimal is true for "blue dot" apps: RAPL within 10% of
	// optimal at the 140 W cap.
	RAPLNearOptimal bool
}

// Fig5 returns the benchmark-characterization scatter data.
func Fig5(cfg Config) ([]Fig5Row, *report.Table, error) {
	d, err := SingleAppSweep(cfg)
	if err != nil {
		return nil, nil, err
	}
	rows, t := fig5From(d)
	return rows, t, nil
}

func fig5From(d *SingleAppData) ([]Fig5Row, *report.Table) {
	t := report.NewTable("Fig 5: Benchmark characteristics (uncapped, max configuration)",
		"Benchmark", "GIPS", "MemBW GB/s", "RAPL@140W")
	var rows []Fig5Row
	for _, app := range d.Apps {
		ev := d.Uncapped[app]
		near := d.Normalized(TechRAPL, 140, app) >= 0.9
		rows = append(rows, Fig5Row{App: app, GIPS: ev.GIPS, MemBWGBs: ev.MemBWGBs, RAPLNearOptimal: near})
		cls := "poor (>10% from optimal)"
		if near {
			cls = "near-optimal"
		}
		t.AddRow(app, report.F(ev.GIPS, 1), report.F(ev.MemBWGBs, 1), cls)
	}
	return rows, t
}

// fig7From renders energy efficiency normalized to optimal, one table per
// cap (Soft-Modeling is omitted, as in the paper's figure).
func fig7From(d *SingleAppData) []*report.Table {
	return d.perCapTables("Fig 7 (%0.fW): energy efficiency normalized to optimal",
		[]string{TechRAPL, TechSoftDVFS, TechSoftDecision, TechPUPiL}, d.NormalizedEfficiency)
}
