package experiment

import (
	"context"
	"testing"
)

// TestClusterGridSemantics runs the quick cluster grid once (memoized for
// the golden test) and checks the properties the comparison is built on:
// every cell survives the full ramp, power respects the phase budget, the
// proportional policy's starvation bound holds, and the static even split
// never deviates from a fair share.
func TestClusterGridSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick cluster grid")
	}
	d, err := clusterGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Policies) != 3 || len(d.NodeCounts) != 3 {
		t.Fatalf("grid is %dx%d, want 3x3", len(d.Policies), len(d.NodeCounts))
	}
	budgets := clusterPhaseBudgets()
	for _, pol := range d.Policies {
		for _, n := range d.NodeCounts {
			rec := d.Records[pol][n]
			if len(rec.PhasePerf) != len(budgets) || len(rec.PhasePower) != len(budgets) {
				t.Fatalf("%s/%d: recorded %d phases, want %d", pol, n, len(rec.PhasePerf), len(budgets))
			}
			for ph, perNode := range budgets {
				if rec.PhasePerf[ph] <= 0 {
					t.Errorf("%s/%d phase %d: no work done", pol, n, ph)
				}
				// Mean cluster power over the trailing epoch stays within a
				// small transient tolerance of the phase budget.
				if budget := perNode * float64(n); rec.PhasePower[ph] > budget*1.05 {
					t.Errorf("%s/%d phase %d: power %.1f W breaches budget %.1f W",
						pol, n, ph, rec.PhasePower[ph], budget)
				}
			}
			if rec.MinShareFrac <= 0 || rec.MinShareFrac > 1 {
				t.Errorf("%s/%d: min share %.3f outside (0, 1]", pol, n, rec.MinShareFrac)
			}
		}
	}
	for _, n := range d.NodeCounts {
		// The even policy is the fairness reference: every node keeps
		// exactly its fair share through the whole ramp.
		if f := d.Records["even"][n].MinShareFrac; f < 0.999 {
			t.Errorf("even/%d: min share %.3f, want 1", n, f)
		}
		// The proportional policy's starvation bound (MinShareFrac 0.5 of
		// fair share) must hold even in the constrained phase.
		if f := d.Records["proportional"][n].MinShareFrac; f < 0.499 {
			t.Errorf("proportional/%d: min share %.3f violates the 0.5 starvation bound", n, f)
		}
	}
}
