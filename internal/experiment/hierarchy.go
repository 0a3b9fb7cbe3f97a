package experiment

import (
	"context"
	"fmt"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/sweep"
	"pupil/internal/workload"
)

// The hierarchy experiment pits the flat coordinator against rack- and
// row-sharded budget trees at the same total budget: the same nodes, the
// same heterogeneous workload rotation, the same global ramp — only the
// arrangement of budget domains between the datacenter cap and the node
// caps changes. A hierarchy trades reaction radius for scalability (watts
// freed in one rack first serve that rack; the parent reapportions across
// racks on a slower cadence), so the grid quantifies what that delegation
// costs in throughput and fairness relative to one flat allocator with a
// global view.

// hierarchyArrangement names one tree shape of the grid; topo derives the
// cluster.Topology for a given node count (zero value means flat).
type hierarchyArrangement struct {
	name string
	topo func(n int) cluster.Topology
}

// hierarchyArrangements is the tree-shape axis, in presentation order:
// flat (one allocator over all nodes), racks (two levels: nodes in racks
// of two), rows (three levels: racks of two grouped two per row). Racks of
// two cut across the four-benchmark workload rotation, so racks have
// genuinely different appetites and the interior levels must actually move
// watts — racks of four would make every rack a clone of the next and the
// comparison vacuous. Parent levels rebalance every other epoch, half the
// leaf cadence.
func hierarchyArrangements() []hierarchyArrangement {
	return []hierarchyArrangement{
		{name: "flat", topo: func(int) cluster.Topology { return cluster.Topology{} }},
		{name: "racks", topo: func(int) cluster.Topology {
			return cluster.Topology{NodesPerRack: 2, RebalanceEvery: 2}
		}},
		{name: "rows", topo: func(int) cluster.Topology {
			return cluster.Topology{NodesPerRack: 2, RacksPerRow: 2, RebalanceEvery: 2}
		}},
	}
}

// hierarchyPolicies is the policy axis: only the adaptive policies — a
// static even split is identical at every tree shape by construction.
func hierarchyPolicies() []string { return []string{"demand-shift", "proportional"} }

// hierarchyNodes is the cluster size: large enough that every arrangement
// is a real tree (quick: 8 nodes = 2 racks; full: 16 nodes = 4 racks in 2
// rows).
func hierarchyNodes(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	return 16
}

// HierarchyRecord condenses one policy x arrangement cell.
type HierarchyRecord struct {
	// Domains counts budget domains in the tree (1 for flat).
	Domains int
	// PhasePerf and PhasePower are the cluster totals over the trailing
	// epoch at the end of each ramp phase.
	PhasePerf  []float64
	PhasePower []float64
	// MinShareFrac is the global fairness floor across all epochs: the
	// smallest node assignment divided by the fair (even) share of the
	// global budget then in force.
	MinShareFrac float64
}

// HierarchyData is the grid: policy -> arrangement name -> record.
type HierarchyData struct {
	Cfg          Config
	Policies     []string
	Arrangements []string
	Nodes        int
	Records      map[string]map[string]HierarchyRecord
}

// runHierarchyGrid executes the policy x arrangement grid.
func runHierarchyGrid(ctx context.Context, cfg Config, opts RunOpts) (*HierarchyData, error) {
	arrs := hierarchyArrangements()
	d := &HierarchyData{
		Cfg:      cfg,
		Policies: hierarchyPolicies(),
		Nodes:    hierarchyNodes(cfg),
		Records:  map[string]map[string]HierarchyRecord{},
	}
	for _, a := range arrs {
		d.Arrangements = append(d.Arrangements, a.name)
	}
	var cells []sweep.Cell[HierarchyRecord]
	for _, pol := range d.Policies {
		for _, a := range arrs {
			pol, a := pol, a
			cells = append(cells, sweep.Cell[HierarchyRecord]{
				Label: fmt.Sprintf("hierarchy/%s/%s", pol, a.name),
				Run: func(ctx context.Context) (HierarchyRecord, error) {
					return runHierarchyCell(ctx, cfg, pol, a)
				},
			})
		}
	}
	results, err := sweep.Run(ctx, cells, opts.sweep())
	if err != nil {
		return nil, fmt.Errorf("experiment: hierarchy sweep: %w", err)
	}
	i := 0
	for _, pol := range d.Policies {
		d.Records[pol] = map[string]HierarchyRecord{}
		for _, a := range arrs {
			d.Records[pol][a.name] = results[i]
			i++
		}
	}
	return d, nil
}

// runHierarchyCell drives one coordinator — one policy at one tree shape —
// through the same budget ramp as the cluster experiment. The seed depends
// on the policy and node count but NOT the arrangement, so flat and tree
// cells of one policy simulate literally the same machines under the same
// workload phases; any divergence in the record is the hierarchy's doing.
func runHierarchyCell(ctx context.Context, cfg Config, policyName string, arr hierarchyArrangement) (HierarchyRecord, error) {
	policy, err := cluster.PolicyByName(policyName)
	if err != nil {
		return HierarchyRecord{}, err
	}
	n := hierarchyNodes(cfg)
	plat := machine.E52690Server()
	specs := make([]cluster.NodeSpec, n)
	for i := 0; i < n; i++ {
		w := clusterWorkloads[i%len(clusterWorkloads)]
		prof, err := workload.ByName(w.name)
		if err != nil {
			return HierarchyRecord{}, err
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
		Seed:        cfg.Seed ^ seedFor("hierarchy", policyName, fmt.Sprintf("%d", n)),
		Parallel:    1,
		Topology:    arr.topo(n),
	})
	if err != nil {
		return HierarchyRecord{}, err
	}

	rec := HierarchyRecord{Domains: coord.DomainCount(), MinShareFrac: 1}
	for phase, perNode := range budgets {
		budget := perNode * float64(n)
		if phase > 0 {
			if err := coord.SetBudget(budget); err != nil {
				return HierarchyRecord{}, err
			}
		}
		for e := 0; e < perPhase; e++ {
			if err := coord.StepContext(ctx, epoch); err != nil {
				return HierarchyRecord{}, err
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

// tableHierarchyFrom renders the flat-vs-tree comparison: per-phase cluster
// throughput and the global fairness floor, policy x arrangement at equal
// total budget.
func tableHierarchyFrom(d *HierarchyData) *report.Table {
	budgets := clusterPhaseBudgets()
	t := report.NewTable(
		fmt.Sprintf("Hierarchy: flat vs sharded budget domains, %d PUPiL nodes under a %.0f->%.0f->%.0f W/node ramp",
			d.Nodes, budgets[0], budgets[1], budgets[2]),
		"Policy", "Arrangement", "Domains",
		"Perf@P1 (hb/s)", "Perf@P2 (hb/s)", "Perf@P3 (hb/s)",
		"Power@P2 (W)", "Min share")
	for _, pol := range d.Policies {
		for _, a := range d.Arrangements {
			rec := d.Records[pol][a]
			t.AddRow(pol, a, fmt.Sprintf("%d", rec.Domains),
				report.F(rec.PhasePerf[0], 2),
				report.F(rec.PhasePerf[1], 2),
				report.F(rec.PhasePerf[2], 2),
				report.F(rec.PhasePower[1], 2),
				report.F(rec.MinShareFrac, 3))
		}
	}
	return t
}
