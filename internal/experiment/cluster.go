package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/sweep"
	"pupil/internal/workload"
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

// clusterWorkloads is the per-node workload rotation: node i of a cluster
// runs entry i mod 4, alternating power-hungry compute with memory-bound
// kernels so demand is genuinely uneven across the cluster.
var clusterWorkloads = []struct {
	name    string
	threads int
}{
	{"blackscholes", 32},
	{"STREAM", 8},
	{"swaptions", 32},
	{"kmeans", 8},
}

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
	var cells []sweep.Cell[ClusterRecord]
	for _, pol := range d.Policies {
		for _, n := range d.NodeCounts {
			pol, n := pol, n
			cells = append(cells, sweep.Cell[ClusterRecord]{
				Label: fmt.Sprintf("cluster/%s/%d", pol, n),
				Run: func(ctx context.Context) (ClusterRecord, error) {
					return runClusterCell(ctx, cfg, pol, n)
				},
			})
		}
	}
	results, err := sweep.Run(ctx, cells, opts.sweep())
	if err != nil {
		return nil, fmt.Errorf("experiment: cluster sweep: %w", err)
	}
	i := 0
	for _, pol := range d.Policies {
		d.Records[pol] = map[int]ClusterRecord{}
		for _, n := range d.NodeCounts {
			d.Records[pol][n] = results[i]
			i++
		}
	}
	return d, nil
}

// runClusterCell drives one coordinator — one policy at one cluster size —
// through the budget ramp. Each node is a full simulated machine under the
// hybrid (PUPiL) node-level capper; the grid cell itself is one sweep unit,
// so the coordinator steps its sessions sequentially (Parallel: 1) and the
// pool parallelism lives at the grid level.
func runClusterCell(ctx context.Context, cfg Config, policyName string, n int) (ClusterRecord, error) {
	policy, err := cluster.PolicyByName(policyName)
	if err != nil {
		return ClusterRecord{}, err
	}
	plat := machine.E52690Server()
	specs := make([]cluster.NodeSpec, n)
	for i := 0; i < n; i++ {
		w := clusterWorkloads[i%len(clusterWorkloads)]
		prof, err := workload.ByName(w.name)
		if err != nil {
			return ClusterRecord{}, err
		}
		specs[i] = cluster.NodeSpec{
			Name:     fmt.Sprintf("%s%d", w.name, i),
			Platform: plat,
			Specs:    []workload.Spec{{Profile: prof, Threads: w.threads}},
			NewController: func(p *machine.Platform) core.Controller {
				return core.NewPUPiL(core.DefaultOrdered(p))
			},
		}
	}

	budgets := clusterPhaseBudgets()
	epoch := clusterEpoch(cfg)
	perPhase := clusterEpochsPerPhase(cfg)
	coord, err := cluster.NewCoordinator(cluster.Config{
		Nodes:       specs,
		BudgetWatts: budgets[0] * float64(n),
		Epoch:       epoch,
		Policy:      policy,
		Seed:        cfg.Seed ^ seedFor("cluster", policyName, fmt.Sprintf("%d", n)),
		Parallel:    1,
	})
	if err != nil {
		return ClusterRecord{}, err
	}

	rec := ClusterRecord{MinShareFrac: 1}
	for phase, perNode := range budgets {
		budget := perNode * float64(n)
		if phase > 0 {
			if err := coord.SetBudget(budget); err != nil {
				return ClusterRecord{}, err
			}
		}
		for e := 0; e < perPhase; e++ {
			if err := coord.StepContext(ctx, epoch); err != nil {
				return ClusterRecord{}, err
			}
			fair := budget / float64(n)
			for _, capW := range coord.Assignments() {
				if frac := capW / fair; frac < rec.MinShareFrac {
					rec.MinShareFrac = frac
				}
			}
		}
		sn := coord.Snapshot()
		rec.PhasePerf = append(rec.PhasePerf, sn.TotalRate)
		rec.PhasePower = append(rec.PhasePower, sn.TotalPower)
	}
	return rec, nil
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
