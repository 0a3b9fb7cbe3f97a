package experiment

import (
	"context"
	"testing"
)

// TestHierarchyGridSemantics runs the quick flat-vs-tree grid once
// (memoized for the golden test) and checks the comparison's ground rules:
// every arrangement survives the full ramp at the same total budget, tree
// shapes report the right domain counts, power respects the global budget
// regardless of how it is sharded, and delegation never starves a node
// past the policies' floors.
func TestHierarchyGridSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick hierarchy grid")
	}
	d, err := hierarchyGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Policies) != 2 || len(d.Arrangements) != 3 {
		t.Fatalf("grid is %dx%d, want 2x3", len(d.Policies), len(d.Arrangements))
	}
	if d.Nodes != 8 {
		t.Fatalf("quick grid runs %d nodes, want 8", d.Nodes)
	}
	// 8 nodes: flat is one domain; racks-of-2 is dc + 4 racks; adding rows
	// (2 racks per row) inserts 2 rows between them.
	wantDomains := map[string]int{"flat": 1, "racks": 5, "rows": 7}
	budgets := clusterPhaseBudgets()
	for _, pol := range d.Policies {
		for _, a := range d.Arrangements {
			rec := d.Records[pol][a]
			if rec.Domains != wantDomains[a] {
				t.Errorf("%s/%s: %d domains, want %d", pol, a, rec.Domains, wantDomains[a])
			}
			if len(rec.PhasePerf) != len(budgets) || len(rec.PhasePower) != len(budgets) {
				t.Fatalf("%s/%s: recorded %d phases, want %d", pol, a, len(rec.PhasePerf), len(budgets))
			}
			for ph, perNode := range budgets {
				if rec.PhasePerf[ph] <= 0 {
					t.Errorf("%s/%s phase %d: no work done", pol, a, ph)
				}
				// Sharding the budget must not let aggregate power escape
				// it: domain budgets always sum to the global cap.
				if budget := perNode * float64(d.Nodes); rec.PhasePower[ph] > budget*1.05 {
					t.Errorf("%s/%s phase %d: power %.1f W breaches global budget %.1f W",
						pol, a, ph, rec.PhasePower[ph], budget)
				}
			}
			if rec.MinShareFrac <= 0 || rec.MinShareFrac > 1 {
				t.Errorf("%s/%s: min share %.3f outside (0, 1]", pol, a, rec.MinShareFrac)
			}
		}
	}
	// The hierarchy must not manufacture or destroy throughput wholesale:
	// at equal total budget, a sharded tree lands within a modest band of
	// the flat allocator's converged (final-phase) performance. The band is
	// wide enough for real delegation effects, tight enough to catch a
	// domain budget being dropped or double-counted.
	for _, pol := range d.Policies {
		flat := d.Records[pol]["flat"]
		final := len(budgets) - 1
		for _, a := range []string{"racks", "rows"} {
			rec := d.Records[pol][a]
			lo, hi := flat.PhasePerf[final]*0.85, flat.PhasePerf[final]*1.15
			if rec.PhasePerf[final] < lo || rec.PhasePerf[final] > hi {
				t.Errorf("%s/%s: converged perf %.2f outside [%.2f, %.2f] of flat's %.2f",
					pol, a, rec.PhasePerf[final], lo, hi, flat.PhasePerf[final])
			}
		}
	}
}
