package experiment

import (
	"context"
	"reflect"
	"testing"
)

// checkGridDeterministic is the core guarantee of the sweep engine:
// scheduling never leaks into results. It runs m fresh with its cells one
// at a time and eight at a time, fails unless the two are deeply equal, and
// returns both runs.
func checkGridDeterministic[D any](t *testing.T, name string, m *memo[D]) (seq, par *D) {
	t.Helper()
	ctx := context.Background()
	seq, err := m.run(ctx, quickCfg(), RunOpts{Parallel: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	par, err = m.run(ctx, quickCfg(), RunOpts{Parallel: 8})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("%s grid differs between parallel=1 and parallel=8", name)
	}
	return seq, par
}

// TestSingleAppSweepDeterministicAcrossParallelism: the single-app sweep
// must produce deeply-equal data and byte-identical rendered tables
// whether cells run one at a time or eight at a time.
func TestSingleAppSweepDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick sweeps")
	}
	seq, par := checkGridDeterministic(t, "single-app", singleGrid)
	if a, b := table3From(seq).String(), table3From(par).String(); a != b {
		t.Errorf("rendered Table 3 differs between parallel=1 and parallel=8:\n--- parallel=1\n%s\n--- parallel=8\n%s", a, b)
	}
}

// TestChaosDeterministicAcrossParallelism: the chaos grid must be
// byte-identical whether cells run one at a time or eight at a time.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick chaos grids")
	}
	seq, par := checkGridDeterministic(t, "chaos", chaosGrid)
	parTables := tablesChaosFrom(par)
	for i, tbl := range tablesChaosFrom(seq) {
		if a, b := tbl.String(), parTables[i].String(); a != b {
			t.Errorf("rendered chaos table %d differs between parallel=1 and parallel=8:\n--- parallel=1\n%s\n--- parallel=8\n%s", i, a, b)
		}
	}
}

// TestThermalDeterministicAcrossParallelism: the thermal grid must be
// byte-identical whether cells run one at a time or eight at a time.
func TestThermalDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full quick thermal grids")
	}
	seq, par := checkGridDeterministic(t, "thermal", thermalGrid)
	if a, b := tableThermalFrom(seq).String(), tableThermalFrom(par).String(); a != b {
		t.Errorf("rendered thermal table differs between parallel=1 and parallel=8:\n--- parallel=1\n%s\n--- parallel=8\n%s", a, b)
	}
}

// TestExperimentsDeterministicAcrossParallelism extends the guarantee to
// the other four memoized grids and to every registered experiment's
// outputs, which also covers the unmemoized Fig. 1, sensitivity and EAS
// grids.
func TestExperimentsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick grid twice")
	}
	checkGridDeterministic(t, "multi-app", multiGrid)
	checkGridDeterministic(t, "cluster", clusterGrid)
	checkGridDeterministic(t, "hierarchy", hierarchyGrid)
	checkGridDeterministic(t, "chaoscluster", chaosClusterGrid)

	ctx, cfg := context.Background(), quickCfg()
	for _, e := range Experiments() {
		seq, err := e.Run(ctx, cfg, RunOpts{Parallel: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		par, err := e.Run(ctx, cfg, RunOpts{Parallel: 8})
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%s outputs differ between parallel=1 and parallel=8", e.Name)
		}
	}
}

// memoGrid is one memoized grid, type-erased so a test can iterate all of
// them: fresh always runs the grid, cached goes through the memo.
type memoGrid struct {
	name          string
	fresh, cached func(context.Context, Config, RunOpts) (any, error)
}

func gridOf[D any](name string, m *memo[D]) memoGrid {
	return memoGrid{
		name:   name,
		fresh:  func(ctx context.Context, cfg Config, o RunOpts) (any, error) { return m.run(ctx, cfg, o) },
		cached: func(ctx context.Context, cfg Config, o RunOpts) (any, error) { return m.get(ctx, cfg, o) },
	}
}

// TestSweepMemoSharedReadOnly documents the memo contract on every
// memoized grid: repeated calls return the same instance whatever their
// RunOpts, and renderers never mutate it — once every registered
// experiment has rendered, each stored grid still equals a fresh run.
func TestSweepMemoSharedReadOnly(t *testing.T) {
	ctx, cfg := context.Background(), quickCfg()
	grids := []memoGrid{
		gridOf("single-app", singleGrid), gridOf("multi-app", multiGrid),
		gridOf("chaos", chaosGrid), gridOf("cluster", clusterGrid),
		gridOf("hierarchy", hierarchyGrid), gridOf("chaoscluster", chaosClusterGrid),
		gridOf("thermal", thermalGrid),
	}
	stored := make([]any, len(grids))
	for i, g := range grids {
		d1, err := g.cached(ctx, cfg, RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		d2, err := g.cached(ctx, cfg, RunOpts{Parallel: 4})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if d1 != d2 {
			t.Fatalf("%s memo returned distinct instances for the same Config", g.name)
		}
		stored[i] = d1
	}

	for _, e := range Experiments() {
		if _, err := e.Run(ctx, cfg, RunOpts{}); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}

	for i, g := range grids {
		fresh, err := g.fresh(ctx, cfg, RunOpts{})
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(stored[i], fresh) {
			t.Errorf("rendering mutated the memoized %s grid: it no longer equals a fresh run", g.name)
		}
	}
}

// TestSingleAppSweepRecordsOptimalConfig checks the sweep now retains the
// oracle's chosen configuration per (cap, app) instead of discarding it.
func TestSingleAppSweepRecordsOptimalConfig(t *testing.T) {
	d, err := SingleAppSweepOpts(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, capW := range d.Caps {
		byApp := d.OptimalConfig[capW]
		if len(byApp) != len(d.Apps) {
			t.Fatalf("OptimalConfig[%v] has %d apps, want %d", capW, len(byApp), len(d.Apps))
		}
		for _, app := range d.Apps {
			c, ok := byApp[app]
			if !ok {
				t.Fatalf("OptimalConfig[%v] missing app %q", capW, app)
			}
			if c.Cores <= 0 || c.Sockets <= 0 {
				t.Errorf("OptimalConfig[%v][%q] = %+v not a real configuration", capW, app, c)
			}
		}
	}
}
