package experiment

import (
	"context"
	"testing"
)

// rec is shorthand for one quick-grid chaos cell.
func chaosRec(t *testing.T, d *ChaosData, variant, profile string) ChaosRecord {
	t.Helper()
	byProfile, ok := d.Records[variant]
	if !ok {
		t.Fatalf("chaos grid missing variant %q", variant)
	}
	r, ok := byProfile[profile]
	if !ok {
		t.Fatalf("chaos grid missing %s/%s", variant, profile)
	}
	return r
}

// TestChaosHybridSurvivesStall is the acceptance criterion of the fault
// campaign: with the decision loop stalled, the supervised hybrid's
// cap-violation time stays within 2x of pure hardware, while both
// software-only techniques visibly breach.
func TestChaosHybridSurvivesStall(t *testing.T) {
	d, err := chaosGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tablesChaosFrom(d) {
		t.Logf("\n%s", tbl.String())
	}

	rapl := chaosRec(t, d, TechRAPL, "ctrl-stall")
	wd := chaosRec(t, d, "PUPiL+WD", "ctrl-stall")
	if wd.BreachSeconds > 2*rapl.BreachSeconds+0.6 {
		t.Errorf("stalled PUPiL+WD breached %.2f s, want within 2x RAPL's %.2f s",
			wd.BreachSeconds, rapl.BreachSeconds)
	}
	for _, soft := range []string{TechSoftDVFS, TechSoftModeling} {
		if b := chaosRec(t, d, soft, "ctrl-stall").BreachSeconds; b < 3 {
			t.Errorf("stalled %s breached only %.2f s; software-only capping should visibly fail", soft, b)
		}
	}

	// The watchdog's floor must rescue throughput, not just safety: the
	// unsupervised hybrid is frozen in its pre-shift configuration.
	bare := chaosRec(t, d, TechPUPiL, "ctrl-stall")
	if wd.SteadyPerf <= bare.SteadyPerf {
		t.Errorf("stalled PUPiL+WD perf %.2f should beat unsupervised PUPiL's %.2f",
			wd.SteadyPerf, bare.SteadyPerf)
	}
	if wd.Degradations == 0 {
		t.Error("stalled PUPiL+WD recorded no supervision transitions")
	}
}

// TestChaosWatchdogQuietWhenHealthy: supervision must be free when nothing
// is wrong — no transitions, normal final level, and the same steady
// performance as the unsupervised hybrid.
func TestChaosWatchdogQuietWhenHealthy(t *testing.T) {
	d, err := chaosGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	wd := chaosRec(t, d, "PUPiL+WD", "none")
	if wd.Degradations != 0 || wd.FinalLevel != "normal" {
		t.Errorf("healthy PUPiL+WD: %d transitions, final %q; want 0 and normal",
			wd.Degradations, wd.FinalLevel)
	}
	bare := chaosRec(t, d, TechPUPiL, "none")
	if wd.BreachSeconds != bare.BreachSeconds {
		t.Errorf("healthy PUPiL+WD breach %.2f differs from unsupervised %.2f",
			wd.BreachSeconds, bare.BreachSeconds)
	}
}

// TestChaosWatchdogLimitsMisprogramming: when the RAPL cap registers are
// corrupted, every variant is exposed — but the watchdog notices the breach
// and backs its caps off, so the supervised hybrid's exposure is strictly
// below the unsupervised hybrid's.
func TestChaosWatchdogLimitsMisprogramming(t *testing.T) {
	d, err := chaosGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bare := chaosRec(t, d, TechPUPiL, "rapl-wrong")
	wd := chaosRec(t, d, "PUPiL+WD", "rapl-wrong")
	if bare.BreachSeconds <= 0 {
		t.Fatal("misprogrammed RAPL did not expose the unsupervised hybrid; the fault is inert")
	}
	if wd.BreachSeconds >= bare.BreachSeconds {
		t.Errorf("PUPiL+WD breach %.2f s under misprogramming should be below unsupervised %.2f s",
			wd.BreachSeconds, bare.BreachSeconds)
	}
	if wd.Degradations == 0 {
		t.Error("misprogramming triggered no supervision transitions")
	}
}

// TestChaosMiniGridExplicitSelection exercises runChaos's cut-down
// selection path (the one CI runs under -race in short mode): two variants
// by two profiles, bypassing the memo.
func TestChaosMiniGridExplicitSelection(t *testing.T) {
	cfg := quickCfg()
	variants := []chaosVariant{
		{name: TechRAPL, tech: TechRAPL},
		{name: "PUPiL+WD", tech: TechPUPiL, watchdog: true},
	}
	profiles := chaosProfiles(cfg)[:2] // none, ctrl-stall
	d, err := runChaos(context.Background(), cfg, RunOpts{Parallel: 2}, variants, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Variants) != 2 || len(d.Profiles) != 2 {
		t.Fatalf("mini grid = %d variants x %d profiles", len(d.Variants), len(d.Profiles))
	}
	wd := chaosRec(t, d, "PUPiL+WD", "ctrl-stall")
	rapl := chaosRec(t, d, TechRAPL, "ctrl-stall")
	if wd.BreachSeconds > 2*rapl.BreachSeconds+0.6 {
		t.Errorf("mini grid: stalled PUPiL+WD breached %.2f s vs RAPL %.2f s",
			wd.BreachSeconds, rapl.BreachSeconds)
	}
}

// TestChaosMemoized documents the memo contract for the chaos grid.
func TestChaosMemoized(t *testing.T) {
	ctx := context.Background()
	a, err := chaosGrid.get(ctx, quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaosGrid.get(ctx, quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same-config chaos grids were not memoized")
	}
}
