package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/driver"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/sim"
	"pupil/internal/sweep"
	"pupil/internal/workload"
)

// Fig1Result holds the motivational-example traces: x264 under a 140 W cap
// for RAPL and Soft-Decision (the paper's Fig. 1), plus PUPiL for the
// hybrid's trajectory.
type Fig1Result struct {
	CapWatts float64
	// Power and Perf index technique name -> measured trace.
	Power map[string]*sim.Series
	Perf  map[string]*sim.Series
	// Settling indexes technique -> measured settling time.
	Settling map[string]time.Duration
	// SteadyPerf indexes technique -> converged performance.
	SteadyPerf map[string]float64
}

// fig1Techs are the trajectories Fig. 1 compares.
func fig1Techs() []string { return []string{TechRAPL, TechSoftDecision, TechPUPiL} }

// Fig1 reruns the motivational example with default execution options.
func Fig1(cfg Config) (*Fig1Result, error) {
	return Fig1Opts(context.Background(), cfg, RunOpts{})
}

// Fig1Opts reruns the motivational example: the tradeoff between hardware
// timeliness and software efficiency on x264 at 140 W over 150 seconds. The
// three techniques run as one small grid on the worker pool.
func Fig1Opts(ctx context.Context, cfg Config, opts RunOpts) (*Fig1Result, error) {
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	prof, err := workload.ByName("x264")
	if err != nil {
		return nil, err
	}
	dur := 150 * time.Second
	if cfg.Quick {
		dur = 75 * time.Second
	}
	out := &Fig1Result{
		CapWatts:   140,
		Power:      map[string]*sim.Series{},
		Perf:       map[string]*sim.Series{},
		Settling:   map[string]time.Duration{},
		SteadyPerf: map[string]float64{},
	}
	techs := fig1Techs()
	cells := make([]sweep.Cell[driver.Result], len(techs))
	for i, tech := range techs {
		tech := tech
		cells[i] = sweep.Cell[driver.Result]{
			Label: fmt.Sprintf("fig1/%s", tech),
			Run: func(ctx context.Context) (driver.Result, error) {
				ctrl, err := h.controller(tech)
				if err != nil {
					return driver.Result{}, err
				}
				return driver.RunContext(ctx, driver.Scenario{
					Platform:   machine.E52690Server(),
					Specs:      []workload.Spec{{Profile: prof, Threads: singleAppThreads}},
					CapWatts:   out.CapWatts,
					Controller: ctrl,
					Duration:   dur,
					Seed:       cfg.Seed ^ seedFor("fig1", tech),
				})
			},
		}
	}
	results, err := sweep.Run(ctx, cells, opts.sweep())
	if err != nil {
		return nil, fmt.Errorf("experiment: fig1: %w", err)
	}
	for i, tech := range techs {
		res := results[i]
		out.Power[tech] = res.PowerTrace
		out.Perf[tech] = res.PerfTrace
		out.Settling[tech] = res.Settling
		out.SteadyPerf[tech] = res.SteadyTotal()
	}
	return out, nil
}

// fig1Outputs renders the summary table (settling and converged
// performance per technique) and, as CSV-only outputs, every power and
// performance trace.
func fig1Outputs(res *Fig1Result) []Output {
	t := report.NewTable("Fig 1: x264 under a 140W cap (motivational example)",
		"Technique", "Settling", "Converged perf (units/s)")
	for _, tech := range fig1Techs() {
		t.AddRow(tech, res.Settling[tech].Round(10*time.Millisecond).String(),
			report.F(res.SteadyPerf[tech], 2))
	}
	outs := []Output{tableOutput("fig1", t)}
	for _, tech := range fig1Techs() {
		outs = append(outs,
			Output{File: "fig1_power_" + tech, CSV: res.Power[tech].CSV()},
			Output{File: "fig1_perf_" + tech, CSV: res.Perf[tech].CSV()})
	}
	return outs
}
