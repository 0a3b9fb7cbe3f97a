package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The experiment tests run the quick grid (memoized across tests) and
// assert the paper's qualitative findings hold on it.

func quickCfg() Config { return Config{Seed: 42, Quick: true} }

func TestConfigGrids(t *testing.T) {
	q := quickCfg()
	if len(q.Caps()) != 3 || len(q.Apps()) != 8 {
		t.Errorf("quick grid = %d caps x %d apps", len(q.Caps()), len(q.Apps()))
	}
	full := Config{}
	if len(full.Caps()) != 5 || len(full.Apps()) != 20 {
		t.Errorf("full grid = %d caps x %d apps, want 5x20", len(full.Caps()), len(full.Apps()))
	}
	if full.Duration(TechSoftDecision) <= full.Duration(TechRAPL) {
		t.Error("Soft-Decision must get more time than RAPL")
	}
}

func TestSingleAppSweepMemoized(t *testing.T) {
	a, err := SingleAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-config sweeps were not memoized")
	}
}

// TestMemo pins the memo's contract on a counting fake: an error is not
// stored, concurrent gets of one Config that both miss return the first
// stored instance, a hit never re-runs the grid, and distinct Configs get
// distinct instances.
func TestMemo(t *testing.T) {
	ctx := context.Background()
	var runs atomic.Int32
	var hook func() error
	m := newMemo(func(_ context.Context, cfg Config, _ RunOpts) (*uint64, error) {
		runs.Add(1)
		if err := hook(); err != nil {
			return nil, err
		}
		seed := cfg.Seed
		return &seed, nil
	})
	a, b := Config{Seed: 1}, Config{Seed: 2}

	hook = func() error { return errors.New("cancelled") }
	if _, err := m.get(ctx, a, RunOpts{}); err == nil {
		t.Fatal("failing run returned no error")
	}

	// Two gets that both miss: each run waits for the other to start, so
	// both run the grid and one result must be discarded.
	var barrier sync.WaitGroup
	barrier.Add(2)
	hook = func() error { barrier.Done(); barrier.Wait(); return nil }
	got := make([]*uint64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = m.get(ctx, a, RunOpts{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("get after a failed run: %v (error was memoized?)", err)
		}
	}
	if got[0] != got[1] {
		t.Error("concurrent gets of one Config returned distinct instances")
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("%d runs after one failure and two concurrent misses, want 3", n)
	}

	hook = func() error { return nil }
	if d, _ := m.get(ctx, a, RunOpts{}); d != got[0] {
		t.Error("a hit returned a different instance")
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("a hit re-ran the grid (%d runs)", n)
	}
	if d, _ := m.get(ctx, b, RunOpts{}); d == got[0] || *d != b.Seed {
		t.Errorf("distinct Config got instance %p (%d), want a new one for seed %d", d, *d, b.Seed)
	}
}

// TestExperimentsCancelled runs every registered experiment under an
// already-cancelled context, at a Config no other test uses: the static
// tables (table1, table2, table4) run no grid and succeed, every other
// entry fails with context.Canceled, and no memo stores a grid for that
// Config — a cancelled run is never memoized.
func TestExperimentsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Seed: 4242, Quick: true}
	static := map[string]bool{"table1": true, "table2": true, "table4": true}
	for _, e := range Experiments() {
		_, err := e.Run(ctx, cfg, RunOpts{})
		switch {
		case static[e.Name] && err != nil:
			t.Errorf("%s: %v", e.Name, err)
		case !static[e.Name] && !errors.Is(err, context.Canceled):
			t.Errorf("%s under a cancelled context returned %v, want context.Canceled", e.Name, err)
		}
	}
	for name, ok := range map[string]bool{
		"single-app":   memoHas(singleGrid, cfg),
		"multi-app":    memoHas(multiGrid, cfg),
		"chaos":        memoHas(chaosGrid, cfg),
		"cluster":      memoHas(clusterGrid, cfg),
		"hierarchy":    memoHas(hierarchyGrid, cfg),
		"chaoscluster": memoHas(chaosClusterGrid, cfg),
		"thermal":      memoHas(thermalGrid, cfg),
	} {
		if ok {
			t.Errorf("%s memo stored a grid from a cancelled run", name)
		}
	}
}

// memoHas reports whether m has stored a grid for cfg.
func memoHas[D any](m *memo[D], cfg Config) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.done[cfg]
	return ok
}

// TestTable3Ordering asserts the paper's central efficiency ordering at
// every cap: PUPiL and Soft-Decision beat RAPL; PUPiL is the best overall.
func TestTable3Ordering(t *testing.T) {
	d, err := SingleAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	hm := func(tech string, capW float64) float64 {
		prod, n := 1.0, 0
		_ = prod
		sum := 0.0
		for _, app := range d.Apps {
			v := d.Normalized(tech, capW, app)
			if v <= 0 {
				return 0
			}
			sum += 1 / v
			n++
		}
		return float64(n) / sum
	}
	for _, capW := range d.Caps {
		rapl, sd, pupil := hm(TechRAPL, capW), hm(TechSoftDecision, capW), hm(TechPUPiL, capW)
		if sd <= rapl {
			t.Errorf("%.0fW: Soft-Decision %.2f should beat RAPL %.2f", capW, sd, rapl)
		}
		if pupil <= rapl {
			t.Errorf("%.0fW: PUPiL %.2f should beat RAPL %.2f", capW, pupil, rapl)
		}
		if pupil < 0.80 {
			t.Errorf("%.0fW: PUPiL %.2f too far from optimal", capW, pupil)
		}
	}
}

// TestNormalizedNeverAboveOne: no online technique may beat the oracle
// while respecting the cap, beyond measurement slack (Soft-Modeling can,
// by violating the cap).
func TestNormalizedBounds(t *testing.T) {
	d, err := SingleAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{TechRAPL, TechSoftDecision, TechPUPiL} {
		for _, capW := range d.Caps {
			for _, app := range d.Apps {
				v := d.Normalized(tech, capW, app)
				if v > 1.10 {
					rec := d.Records[tech][capW][app]
					t.Errorf("%s/%s/%.0fW normalized %.2f > 1.1 (power %.1f)",
						tech, app, capW, v, rec.SteadyPower)
				}
			}
		}
	}
}

// TestFig4SettlingHierarchy asserts the timeliness ordering of the paper:
// hardware and hybrid in the hundreds of milliseconds, Soft-DVFS seconds,
// Soft-Decision tens of seconds.
func TestFig4SettlingHierarchy(t *testing.T) {
	avg, err := Fig4Averages(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if avg[TechRAPL] > 1000 {
		t.Errorf("RAPL mean settling %.0f ms, want hundreds of ms", avg[TechRAPL])
	}
	if avg[TechPUPiL] > 1000 {
		t.Errorf("PUPiL mean settling %.0f ms, want hardware-like", avg[TechPUPiL])
	}
	if avg[TechSoftDVFS] < 2*avg[TechRAPL] {
		t.Errorf("Soft-DVFS %.0f ms should be well above RAPL %.0f ms", avg[TechSoftDVFS], avg[TechRAPL])
	}
	if avg[TechSoftDecision] < 5*avg[TechSoftDVFS] {
		t.Errorf("Soft-Decision %.0f ms should dwarf Soft-DVFS %.0f ms",
			avg[TechSoftDecision], avg[TechSoftDVFS])
	}
}

// TestFig5Classification: the characterization must separate the known
// RAPL-poor applications and show STREAM with the top bandwidth.
func TestFig5Classification(t *testing.T) {
	rows, table, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) != len(rows) {
		t.Fatal("Fig5 table malformed")
	}
	byApp := map[string]Fig5Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	for _, poor := range []string{"kmeans", "dijkstra"} {
		if byApp[poor].RAPLNearOptimal {
			t.Errorf("%s classified RAPL-near-optimal; paper marks it poor", poor)
		}
	}
	for _, good := range []string{"blackscholes", "jacobi"} {
		if !byApp[good].RAPLNearOptimal {
			t.Errorf("%s classified RAPL-poor; paper marks it near-optimal", good)
		}
	}
	for _, r := range rows {
		if r.App != "STREAM" && r.MemBWGBs >= byApp["STREAM"].MemBWGBs {
			t.Errorf("%s bandwidth %.1f >= STREAM's %.1f", r.App, r.MemBWGBs, byApp["STREAM"].MemBWGBs)
		}
	}
}

// TestTable5ObliviousDominatesCooperative asserts the headline
// multi-application finding: PUPiL's advantage is largest in the oblivious
// scenario, and it wins both scenarios at the tight caps.
func TestTable5ObliviousDominatesCooperative(t *testing.T) {
	means, err := Table5Means(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, capW := range quickCfg().Caps() {
		coop := means[ScenarioCooperative][capW]
		obl := means[ScenarioOblivious][capW]
		if obl <= coop {
			t.Errorf("%.0fW: oblivious ratio %.2f should exceed cooperative %.2f", capW, obl, coop)
		}
		if obl < 1.05 {
			t.Errorf("%.0fW: oblivious ratio %.2f should clearly favour PUPiL", capW, obl)
		}
	}
	if means[ScenarioCooperative][60] < 1.2 {
		t.Errorf("cooperative ratio at 60W = %.2f, want a clear PUPiL win (paper: 1.43)",
			means[ScenarioCooperative][60])
	}
}

// TestTable6SpinCollapse asserts the Section 5.4.3 diagnosis: under RAPL
// the pathological oblivious mixes burn double-digit percentages of cycles
// spinning, and PUPiL reduces that by an order of magnitude.
func TestTable6SpinCollapse(t *testing.T) {
	d, err := MultiAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rapl := d.Records[ScenarioOblivious][TechRAPL][140]["mix8"]
	pupil := d.Records[ScenarioOblivious][TechPUPiL][140]["mix8"]
	if rapl.Eval.SpinFrac < 0.15 {
		t.Errorf("RAPL mix8 spin %.2f, want > 0.15 (paper: 0.54)", rapl.Eval.SpinFrac)
	}
	if pupil.Eval.SpinFrac > rapl.Eval.SpinFrac/5 {
		t.Errorf("PUPiL mix8 spin %.3f should be a small fraction of RAPL's %.2f",
			pupil.Eval.SpinFrac, rapl.Eval.SpinFrac)
	}
	if pupil.Eval.MemBWGBs <= rapl.Eval.MemBWGBs {
		t.Errorf("PUPiL mix8 bandwidth %.1f should exceed RAPL's %.1f (Table 6 inversion)",
			pupil.Eval.MemBWGBs, rapl.Eval.MemBWGBs)
	}
}

// TestFig8EfficiencyGain: PUPiL's energy-efficiency ratio over RAPL is
// above 1 in the oblivious scenario (Section 5.5).
func TestFig8EfficiencyGain(t *testing.T) {
	d, err := MultiAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, capW := range d.Caps {
		for _, mix := range d.Mixes {
			if r := d.EfficiencyRatio(ScenarioOblivious, capW, mix); r < 0.9 {
				t.Errorf("oblivious %s at %.0fW: efficiency ratio %.2f well below 1", mix.Name, capW, r)
			}
		}
	}
}

func TestTable2Report(t *testing.T) {
	impacts, table, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(impacts) != 5 {
		t.Fatalf("calibration returned %d resources, want 5", len(impacts))
	}
	if impacts[0].Resource != "cores" || impacts[len(impacts)-1].Resource != "dvfs" {
		t.Errorf("order = %v", impacts)
	}
	if !strings.Contains(table.String(), "cores") {
		t.Error("table missing cores row")
	}
}

func TestFig1Traces(t *testing.T) {
	res, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{TechRAPL, TechSoftDecision, TechPUPiL} {
		if res.Power[tech].Len() == 0 || res.Perf[tech].Len() == 0 {
			t.Fatalf("%s traces empty", tech)
		}
	}
	// The motivational claims: software converges to higher performance
	// than hardware; hybrid keeps hardware's settling.
	if res.SteadyPerf[TechSoftDecision] <= res.SteadyPerf[TechRAPL] {
		t.Errorf("Soft-Decision %.2f should out-perform RAPL %.2f once converged",
			res.SteadyPerf[TechSoftDecision], res.SteadyPerf[TechRAPL])
	}
	if res.Settling[TechPUPiL] > 2*time.Second {
		t.Errorf("PUPiL settling %v should be hardware-like", res.Settling[TechPUPiL])
	}
	if res.Settling[TechSoftDecision] < 5*time.Second {
		t.Errorf("Soft-Decision settling %v should be tens of seconds", res.Settling[TechSoftDecision])
	}
}

func TestTable4ListsAllMixes(t *testing.T) {
	table := Table4()
	if len(table.Rows) != 12 {
		t.Errorf("Table 4 has %d rows, want 12", len(table.Rows))
	}
}

func TestRenderedTablesComplete(t *testing.T) {
	cfg := quickCfg()
	t3, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != len(cfg.Caps()) {
		t.Errorf("Table 3 rows = %d, want one per cap", len(t3.Rows))
	}
	f3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != len(cfg.Caps()) {
		t.Errorf("Fig 3 tables = %d, want one per cap", len(f3))
	}
	// Per-app rows plus the harmonic mean row.
	if len(f3[0].Rows) != len(cfg.Apps())+1 {
		t.Errorf("Fig 3 rows = %d, want %d", len(f3[0].Rows), len(cfg.Apps())+1)
	}
	f6, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6) != 2 {
		t.Errorf("Fig 6 tables = %d, want one per scenario", len(f6))
	}
	f7, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) != len(cfg.Caps()) {
		t.Errorf("Fig 7 tables = %d", len(f7))
	}
	f8, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8) != 2 {
		t.Errorf("Fig 8 tables = %d", len(f8))
	}
	t5, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != len(cfg.Caps()) {
		t.Errorf("Table 5 rows = %d", len(t5.Rows))
	}
	t6, err := Table6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) == 0 {
		t.Error("Table 6 empty")
	}
}

// TestSensitivityGracefulDegradation: PUPiL's filtered feedback should keep
// it near optimal at the default noise level and degrade gracefully (not
// collapse) at 10x noise, while the cap stays enforced.
func TestSensitivityGracefulDegradation(t *testing.T) {
	rows, table, err := SensitivityOpts(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(rows) != 4 {
		t.Fatalf("sensitivity returned %d rows", len(rows))
	}
	byLabel := map[string]SensitivityRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	for _, capW := range quickCfg().Caps() {
		if v := byLabel["default"].Normalized[capW]; v < 0.75 {
			t.Errorf("default noise at %.0fW: normalized %.2f, want near optimal", capW, v)
		}
		if v := byLabel["10x noise"].Normalized[capW]; v < 0.45 {
			t.Errorf("10x noise at %.0fW: normalized %.2f collapsed", capW, v)
		}
		if v := byLabel["default"].Violations[capW]; v > 0.05 {
			t.Errorf("default noise at %.0fW: violations %.1f%%", capW, v*100)
		}
	}
}

// TestHeadlineNumbersPinned pins the quick-grid headline quantities with
// generous tolerances. Runs are deterministic, so drift here means a model
// or controller change altered the reproduction — re-run cmd/validate,
// regenerate EXPERIMENTS.md, and update these pins deliberately.
func TestHeadlineNumbersPinned(t *testing.T) {
	d, err := SingleAppSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	hm := func(tech string, capW float64) float64 {
		sum, n := 0.0, 0
		for _, app := range d.Apps {
			v := d.Normalized(tech, capW, app)
			if v <= 0 {
				return 0
			}
			sum += 1 / v
			n++
		}
		return float64(n) / sum
	}
	pin := func(name string, got, want, tol float64) {
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %.3f, pinned at %.2f±%.2f", name, got, want, tol)
		}
	}
	pin("RAPL@140W", hm(TechRAPL, 140), 0.63, 0.10)
	pin("PUPiL@140W", hm(TechPUPiL, 140), 0.91, 0.08)
	pin("SoftDecision@140W", hm(TechSoftDecision, 140), 0.89, 0.09)

	avg, err := Fig4Averages(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	pin("RAPL settling ms", avg[TechRAPL], 560, 250)
	pin("SoftDecision settling ms", avg[TechSoftDecision], 27000, 15000)

	means, err := Table5Means(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	pin("oblivious ratio@140W", means[ScenarioOblivious][140], 1.5, 0.5)
}

// TestExtensionEASNeverRegresses: per-application pinning is only adopted
// when it helps, so the extension must never fall below plain PUPiL.
func TestExtensionEASNeverRegresses(t *testing.T) {
	table, err := ExtensionEASOpts(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[0] == "Harm.Mean" {
			continue
		}
		// gain columns are indices 3 and 6.
		for _, idx := range []int{3, 6} {
			var gain float64
			if _, err := fmt.Sscanf(row[idx], "%f", &gain); err != nil {
				t.Fatalf("row %v: parsing gain: %v", row, err)
			}
			if gain < 0.97 {
				t.Errorf("%s: EAS regressed to %.2fx of PUPiL", row[0], gain)
			}
		}
	}
}
