package experiment

import (
	"context"
	"fmt"

	"pupil/internal/report"
)

// Output is one artifact of an experiment, written as File.csv: a rendered
// table (printed, with its CSV body in CSV), or, with Table nil, a
// CSV-only trace.
type Output struct {
	File  string
	Table *report.Table
	CSV   string
}

// Experiment is one selectable unit of the reproduction: its name and the
// run producing its outputs. Outputs are identical for a given Config at
// any parallelism.
type Experiment struct {
	Name string
	Run  func(ctx context.Context, cfg Config, opts RunOpts) ([]Output, error)
}

// Experiments lists every experiment in print order. Entries over one
// memoized grid share it: the first to run pays for the sweep, on its own
// RunOpts.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", func(context.Context, Config, RunOpts) ([]Output, error) {
			return []Output{tableOutput("table1", Table1())}, nil
		}},
		{"table2", func(_ context.Context, cfg Config, _ RunOpts) ([]Output, error) {
			_, t, err := Table2(cfg)
			return oneTable("table2", t, err)
		}},
		{"fig1", func(ctx context.Context, cfg Config, opts RunOpts) ([]Output, error) {
			res, err := Fig1Opts(ctx, cfg, opts)
			if err != nil {
				return nil, err
			}
			return fig1Outputs(res), nil
		}},
		{"table3", gridTable(singleGrid, "table3", table3From)},
		{"fig3", gridSeries(singleGrid, "fig3", fig3From)},
		{"fig4", gridTable(singleGrid, "fig4", fig4From)},
		{"fig5", fromGrid(singleGrid, func(d *SingleAppData) []Output {
			_, t := fig5From(d)
			return []Output{tableOutput("fig5", t)}
		})},
		{"table4", func(context.Context, Config, RunOpts) ([]Output, error) {
			return []Output{tableOutput("table4", Table4())}, nil
		}},
		{"table5", gridTable(multiGrid, "table5", table5From)},
		{"fig6", gridSeries(multiGrid, "fig6", fig6From)},
		{"table6", gridTable(multiGrid, "table6", table6From)},
		{"fig7", gridSeries(singleGrid, "fig7", fig7From)},
		{"sensitivity", func(ctx context.Context, cfg Config, opts RunOpts) ([]Output, error) {
			_, t, err := SensitivityOpts(ctx, cfg, opts)
			return oneTable("sensitivity", t, err)
		}},
		{"eas", func(ctx context.Context, cfg Config, opts RunOpts) ([]Output, error) {
			t, err := ExtensionEASOpts(ctx, cfg, opts)
			return oneTable("extension_eas", t, err)
		}},
		{"fig8", gridSeries(multiGrid, "fig8", fig8From)},
		{"chaos", fromGrid(chaosGrid, func(d *ChaosData) []Output {
			ts := tablesChaosFrom(d)
			return []Output{tableOutput("chaos_breach", ts[0]), tableOutput("chaos_perf", ts[1]),
				tableOutput("chaos_watchdog", ts[2])}
		})},
		{"cluster", gridTable(clusterGrid, "cluster", tableClusterFrom)},
		{"chaoscluster", gridTable(chaosClusterGrid, "chaoscluster", tableChaosClusterFrom)},
		{"thermal", gridTable(thermalGrid, "thermal", tableThermalFrom)},
		{"hierarchy", gridTable(hierarchyGrid, "hierarchy", tableHierarchyFrom)},
	}
}

// fromGrid builds an experiment's run from a memoized grid and its
// renderer.
func fromGrid[D any](m *memo[D], render func(*D) []Output) func(context.Context, Config, RunOpts) ([]Output, error) {
	return func(ctx context.Context, cfg Config, opts RunOpts) ([]Output, error) {
		d, err := m.get(ctx, cfg, opts)
		if err != nil {
			return nil, err
		}
		return render(d), nil
	}
}

// gridTable is fromGrid for a renderer of one table, written as file.
func gridTable[D any](m *memo[D], file string, render func(*D) *report.Table) func(context.Context, Config, RunOpts) ([]Output, error) {
	return fromGrid(m, func(d *D) []Output { return []Output{tableOutput(file, render(d))} })
}

// gridSeries is fromGrid for a renderer of a table series, written as
// file_0, file_1, ... in order.
func gridSeries[D any](m *memo[D], file string, render func(*D) []*report.Table) func(context.Context, Config, RunOpts) ([]Output, error) {
	return fromGrid(m, func(d *D) []Output {
		ts := render(d)
		outs := make([]Output, len(ts))
		for i, t := range ts {
			outs[i] = tableOutput(fmt.Sprintf("%s_%d", file, i), t)
		}
		return outs
	})
}

func tableOutput(file string, t *report.Table) Output {
	return Output{File: file, Table: t, CSV: t.CSV()}
}

// oneTable wraps a single-table driver's result.
func oneTable(file string, t *report.Table, err error) ([]Output, error) {
	if err != nil {
		return nil, err
	}
	return []Output{tableOutput(file, t)}, nil
}
