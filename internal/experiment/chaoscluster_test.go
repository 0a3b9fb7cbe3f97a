package experiment

import (
	"context"
	"testing"
)

// ccRec is shorthand for one quick-grid chaoscluster cell.
func ccRec(t *testing.T, d *ChaosClusterData, policy, profile, health string) ChaosClusterRecord {
	t.Helper()
	r, ok := d.Records[policy][profile][health]
	if !ok {
		t.Fatalf("chaoscluster grid missing %s/%s/%s", policy, profile, health)
	}
	return r
}

// TestChaosClusterQuarantineRecoversStranded is the fleet grid's acceptance
// criterion: under a hung node — the failure that strands the most budget,
// because the frozen demand report looks healthy to an adaptive policy —
// the quarantining coordinator parks the node at the floor (near-zero
// stranded watts, positive reclaim) and converts the recovered budget into
// strictly more cluster throughput than the naive baseline.
func TestChaosClusterQuarantineRecoversStranded(t *testing.T) {
	d, err := chaosClusterGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tableChaosClusterFrom(d).String())

	for _, pol := range d.Policies {
		naive := ccRec(t, d, pol, "node-hang", "naive")
		quar := ccRec(t, d, pol, "node-hang", "quarantine")
		if naive.StrandedWatts <= quar.StrandedWatts {
			t.Errorf("%s/node-hang: naive strands %.2f W, quarantine %.2f W — quarantine should reclaim",
				pol, naive.StrandedWatts, quar.StrandedWatts)
		}
		if quar.StrandedWatts > 1 {
			t.Errorf("%s/node-hang: quarantine still strands %.2f W above the floor", pol, quar.StrandedWatts)
		}
		if quar.MeanPerf <= naive.MeanPerf {
			t.Errorf("%s/node-hang: quarantine perf %.2f should beat naive %.2f (reclaimed watts become work)",
				pol, quar.MeanPerf, naive.MeanPerf)
		}
		if quar.ReclaimedWatts <= 0 || quar.Benched < 1 {
			t.Errorf("%s/node-hang: quarantine reports %.2f W reclaimed, %d benched",
				pol, quar.ReclaimedWatts, quar.Benched)
		}
		if naive.ReclaimedWatts != 0 || naive.Benched != 0 || naive.Transitions != 0 {
			t.Errorf("%s/node-hang: naive coordinator reports health activity: %+v", pol, naive)
		}
	}
}

// TestChaosClusterRackOutBenchesTheRack: a whole rack crashing benches all
// its members; the grid's largest reclaim flows to the surviving racks.
func TestChaosClusterRackOutBenchesTheRack(t *testing.T) {
	d, err := chaosClusterGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies {
		quar := ccRec(t, d, pol, "rack-out", "quarantine")
		if quar.Benched != 4 {
			t.Errorf("%s/rack-out: %d nodes benched, want the whole 4-node rack", pol, quar.Benched)
		}
		if quar.ReclaimedWatts <= 0 {
			t.Errorf("%s/rack-out: no budget reclaimed from a dead rack", pol)
		}
	}
}

// TestChaosClusterHealthNoopOnCleanRun pins the zero-overhead contract at
// grid level: on the clean profile the quarantining coordinator's outcome
// is bit-identical to the naive one — enabling health tracking must not
// perturb a healthy fleet in any observable way.
func TestChaosClusterHealthNoopOnCleanRun(t *testing.T) {
	d, err := chaosClusterGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies {
		naive := ccRec(t, d, pol, "none", "naive")
		quar := ccRec(t, d, pol, "none", "quarantine")
		if naive != quar {
			t.Errorf("%s/none: health-on record differs from naive:\nnaive      %+v\nquarantine %+v",
				pol, naive, quar)
		}
		if quar.Transitions != 0 {
			t.Errorf("%s/none: %d health transitions on a clean run", pol, quar.Transitions)
		}
	}
}

// TestChaosClusterCellDeterminism: re-running one cell standalone
// reproduces the grid's record exactly — the same contract every other
// sweep in the package holds.
func TestChaosClusterCellDeterminism(t *testing.T) {
	d, err := chaosClusterGrid.get(context.Background(), quickCfg(), RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range chaosClusterProfiles() {
		if p.name != "demand-corrupt" {
			continue
		}
		rerun, err := runChaosClusterCell(context.Background(), quickCfg(), "demand-shift", p, "quarantine")
		if err != nil {
			t.Fatal(err)
		}
		if want := ccRec(t, d, "demand-shift", "demand-corrupt", "quarantine"); rerun != want {
			t.Errorf("re-run cell differs from grid:\ngrid  %+v\nrerun %+v", want, rerun)
		}
	}
}
