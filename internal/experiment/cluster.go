package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/report"
)

// The cluster experiment compares the coordinator's rebalancing policies —
// static even split, demand-shift, and fairness-bounded proportional share —
// at 2, 4, and 8 nodes under a three-phase global budget ramp (generous ->
// constrained -> partial recovery). Nodes run heterogeneous workloads (a mix
// of compute-hungry and memory-bound benchmarks), so an adaptive policy can
// buy cluster throughput by moving watts toward the nodes that convert them
// into work; the fairness column shows what that costs the smallest
// allocation. This is the Section 6 direction of the paper (node-level
// capping as the building block for coordinated, cluster-level management)
// made concrete.

// clusterNodeCounts is the cluster-size axis of the grid.
func clusterNodeCounts() []int { return []int{2, 4, 8} }

// clusterPolicies is the policy axis, in presentation order.
func clusterPolicies() []string { return []string{"even", "demand-shift", "proportional"} }

// clusterPhaseBudgets returns the per-node budget of each ramp phase; the
// cell multiplies by its node count. The constrained phase (80 W/node) sits
// well below the compute benchmarks' appetite, which is what forces the
// policies to choose who gets squeezed.
func clusterPhaseBudgets() []float64 { return []float64{140, 80, 110} }

// clusterEpoch and clusterEpochsPerPhase scale the simulated schedule.
func clusterEpoch(cfg Config) time.Duration {
	if cfg.Quick {
		return time.Second
	}
	return 2 * time.Second
}

func clusterEpochsPerPhase(cfg Config) int {
	if cfg.Quick {
		return 4
	}
	return 8
}

// ClusterRecord condenses one policy x node-count cell.
type ClusterRecord struct {
	// PhasePerf and PhasePower are the cluster's total work rate and power
	// over the trailing epoch at the end of each ramp phase.
	PhasePerf  []float64
	PhasePower []float64
	// MinShareFrac is the run's fairness floor: the minimum, over all
	// epochs, of the smallest node assignment divided by the fair (even)
	// share of the budget then in force. 1.0 means perfectly even; small
	// values mean some node was squeezed hard.
	MinShareFrac float64
}

// ClusterData is the cluster grid: policy -> node count -> record.
type ClusterData struct {
	Cfg        Config
	Policies   []string
	NodeCounts []int
	Records    map[string]map[int]ClusterRecord
}

// runClusterGrid executes the policy x node-count grid.
func runClusterGrid(ctx context.Context, cfg Config, opts RunOpts) (*ClusterData, error) {
	d := &ClusterData{
		Cfg:        cfg,
		Policies:   clusterPolicies(),
		NodeCounts: clusterNodeCounts(),
		Records:    map[string]map[int]ClusterRecord{},
	}
	type clusterKey struct {
		policy string
		n      int
	}
	var keys []clusterKey
	for _, pol := range d.Policies {
		for _, n := range d.NodeCounts {
			keys = append(keys, clusterKey{pol, n})
		}
	}
	results, err := runGrid(ctx, opts, "cluster sweep", keys,
		func(k clusterKey) string { return fmt.Sprintf("cluster/%s/%d", k.policy, k.n) },
		func(ctx context.Context, k clusterKey) (ClusterRecord, error) {
			res, err := runFleet(ctx, cfg, clusterRamp(cfg, k.policy, k.n,
				seedFor("cluster", k.policy, fmt.Sprintf("%d", k.n))))
			return ClusterRecord{PhasePerf: res.phaseRate, PhasePower: res.phasePower, MinShareFrac: res.minShare}, err
		})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		put2(d.Records, k.policy, k.n, results[i])
	}
	return d, nil
}

// clusterRamp is one policy at one cluster size through the three-phase
// budget ramp, the run of every cluster and hierarchy cell.
func clusterRamp(cfg Config, policy string, n int, salt uint64) fleetRun {
	return fleetRun{
		policy:         policy,
		nodes:          n,
		salt:           salt,
		epoch:          clusterEpoch(cfg),
		phaseBudgets:   clusterPhaseBudgets(),
		epochsPerPhase: clusterEpochsPerPhase(cfg),
	}
}

// tableClusterFrom renders the cluster-policy comparison: per-phase cluster
// throughput and the fairness floor, policy x node count.
func tableClusterFrom(d *ClusterData) *report.Table {
	budgets := clusterPhaseBudgets()
	t := report.NewTable(
		fmt.Sprintf("Cluster: policy comparison under a %.0f->%.0f->%.0f W/node budget ramp (PUPiL nodes)",
			budgets[0], budgets[1], budgets[2]),
		"Policy", "Nodes",
		"Perf@P1 (hb/s)", "Perf@P2 (hb/s)", "Perf@P3 (hb/s)",
		"Power@P2 (W)", "Min share")
	for _, pol := range d.Policies {
		for _, n := range d.NodeCounts {
			rec := d.Records[pol][n]
			t.AddRow(pol, fmt.Sprintf("%d", n),
				report.F(rec.PhasePerf[0], 2),
				report.F(rec.PhasePerf[1], 2),
				report.F(rec.PhasePerf[2], 2),
				report.F(rec.PhasePower[1], 2),
				report.F(rec.MinShareFrac, 3))
		}
	}
	return t
}
