package experiment

import (
	"fmt"

	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/resource"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// Table1 renders the platform description (the paper's Table 1).
func Table1() *report.Table {
	p := machine.E52690Server()
	t := report.NewTable("Table 1: Server resources",
		"Processor", "Cores", "Sockets", "Speeds (GHz)", "TurboBoost", "HyperThreads",
		"Memory Controllers", "Socket TDP (W)", "Configurations")
	t.AddRow(p.Name,
		fmt.Sprintf("%d", p.CoresPerSocket),
		fmt.Sprintf("%d", p.Sockets),
		fmt.Sprintf("%.1f-%.1f", p.MinGHz(), p.BaseGHz()),
		"yes", "yes",
		fmt.Sprintf("%d", p.MemCtls),
		fmt.Sprintf("%.0f", p.SocketTDP),
		fmt.Sprintf("%d", p.NumConfigurations()))
	return t
}

// Table2 runs the Algorithm 2 calibration — the embarrassingly parallel
// benchmark activating each resource individually from the minimal
// configuration — and renders the measured ordering with each resource's
// speedup and powerup. Calibration is a one-time offline procedure in the
// paper, so it measures steady state directly.
func Table2(cfg Config) ([]resource.Impact, *report.Table, error) {
	plat := machine.E52690Server()
	apps, err := workload.NewInstances([]workload.Spec{
		{Profile: workload.Calibration(), Threads: singleAppThreads},
	})
	if err != nil {
		return nil, nil, err
	}
	measure := func(c machine.Config) (perf, power float64) {
		ev := system.Evaluate(plat, c, apps, 0)
		return ev.TotalRate(), ev.PowerTotal
	}
	_, impacts, err := resource.Order(plat, resource.Standard(plat), measure,
		sim.NewRNG(cfg.Seed^0x7ab1e2))
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Table 2: System configurations (calibrated resource order)",
		"Resource", "Settings", "Max Speedup", "Max Powerup")
	for _, im := range impacts {
		t.AddRow(im.Resource, fmt.Sprintf("%d", im.Settings),
			report.F(im.Speedup, 1), report.F(im.Powerup, 1))
	}
	return impacts, t, nil
}
