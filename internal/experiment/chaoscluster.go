package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/report"
	"pupil/internal/sweep"
	"pupil/internal/workload"
)

// The chaoscluster experiment is the fleet-level counterpart of the chaos
// grid: where chaos breaks one node's sensors and actuators under a single
// capper, chaoscluster breaks whole nodes out from under the coordinator —
// a member crashes, hangs mid-epoch, flaps, lies in its demand report, or
// an entire rack goes dark — and asks what each rebalancing policy does
// with the watts the failure strands. The naive coordinator keeps feeding
// a dead node its share (a hung node's frozen demand report looks exactly
// like a healthy steady state); the quarantining coordinator notices the
// node never stepped, benches it at the safety floor, and re-splits the
// reclaimed budget across members that convert it into work. Each cell is
// one policy x fault profile x health mode at fleet scale, and the grid's
// headline comparison — stranded watts and cluster throughput, naive vs
// quarantine — is the PR's acceptance criterion in CSV form.

// chaosClusterBudgetPerNode is the per-node budget of every cell; the
// fleet budget is this times the node count.
const chaosClusterBudgetPerNode = 120.0

// chaosClusterFloor mirrors the coordinator's default safety floor.
const chaosClusterFloor = 25.0

// chaosClusterEpoch is the coordination epoch of every cell.
const chaosClusterEpoch = time.Second

// chaosClusterOnsetEpochs is when the fault lands: late enough that every
// policy has converged on a steady split, so the post-onset comparison
// isolates the failure response.
const chaosClusterOnsetEpochs = 5

// chaosClusterNodes scales the fleet: 16 nodes (4 racks) for the full
// reproduction, 8 (2 racks) for the quick grid.
func chaosClusterNodes(cfg Config) int {
	if cfg.Quick {
		return 8
	}
	return 16
}

// chaosClusterEpochs is the simulated horizon in coordination epochs.
func chaosClusterEpochs(cfg Config) int {
	if cfg.Quick {
		return 30
	}
	return 60
}

// chaosClusterPolicies is the policy axis: the two adaptive policies, where
// stranding is possible at all (a static even split has nothing to shift).
func chaosClusterPolicies() []string { return []string{"demand-shift", "proportional"} }

// chaosClusterHealthModes is the health axis: the naive coordinator vs the
// quarantining one (every HealthConfig default).
func chaosClusterHealthModes() []string { return []string{"naive", "quarantine"} }

// chaosClusterProfile is one named fleet fault: a scenario aimed at node 0
// or at a whole budget domain. A nil scenario is the clean baseline.
type chaosClusterProfile struct {
	name   string
	domain string // non-empty: inject into every node of this domain
	sc     *faults.Scenario
}

// chaosClusterProfiles builds the fault menu. Onsets are absolute (the
// coordinator clock starts at zero) and durations outlast the run, so each
// profile is a permanent failure the fleet must live with — the regime
// where reclaiming stranded budget pays every remaining epoch.
func chaosClusterProfiles() []chaosClusterProfile {
	onset := chaosClusterOnsetEpochs * chaosClusterEpoch
	hold := 10 * time.Minute
	return []chaosClusterProfile{
		{name: "none"},
		{name: "node-crash", sc: &faults.Scenario{
			Kind: faults.KindCrash, Target: faults.TargetNode,
			Onset: onset, Duration: hold,
		}},
		{name: "node-hang", sc: &faults.Scenario{
			Kind: faults.KindHang, Target: faults.TargetNode,
			Onset: onset, Duration: hold,
		}},
		{name: "flap", sc: &faults.Scenario{
			Kind: faults.KindFlap, Target: faults.TargetNode,
			Onset: onset, Duration: hold, Magnitude: 4,
		}},
		{name: "demand-corrupt", sc: &faults.Scenario{
			Kind: faults.KindCorrupt, Target: faults.TargetDemand,
			Onset: onset, Duration: hold, Magnitude: 6,
		}},
		{name: "rack-out", domain: "rack0", sc: &faults.Scenario{
			Kind: faults.KindCrash, Target: faults.TargetNode,
			Onset: onset, Duration: hold,
		}},
	}
}

// ChaosClusterRecord condenses one policy x profile x health cell.
type ChaosClusterRecord struct {
	// MeanPerf is the fleet's mean work rate (hb/s) over post-onset epochs.
	MeanPerf float64
	// StrandedWatts is the mean budget parked on the faulted nodes above
	// the safety floor over post-onset epochs — watts a healthy member
	// could have converted into work. Zero for the clean baseline.
	StrandedWatts float64
	// ReclaimedWatts is the budget held back from benched nodes at the end
	// of the run; always zero for the naive coordinator.
	ReclaimedWatts float64
	// Benched counts nodes quarantined or probing at the end of the run.
	Benched int
	// Transitions counts health state transitions over the whole run.
	Transitions int
}

// ChaosClusterData is the fleet chaos grid: policy -> profile -> health
// mode -> record.
type ChaosClusterData struct {
	Cfg         Config
	Policies    []string
	Profiles    []string
	HealthModes []string
	Records     map[string]map[string]map[string]ChaosClusterRecord
}

// runChaosClusterGrid executes the policy x profile x health-mode grid.
func runChaosClusterGrid(ctx context.Context, cfg Config, opts RunOpts) (*ChaosClusterData, error) {
	d := &ChaosClusterData{
		Cfg:         cfg,
		Policies:    chaosClusterPolicies(),
		HealthModes: chaosClusterHealthModes(),
		Records:     map[string]map[string]map[string]ChaosClusterRecord{},
	}
	profiles := chaosClusterProfiles()
	for _, p := range profiles {
		d.Profiles = append(d.Profiles, p.name)
	}

	var cells []sweep.Cell[ChaosClusterRecord]
	for _, pol := range d.Policies {
		for _, p := range profiles {
			for _, hm := range d.HealthModes {
				pol, p, hm := pol, p, hm
				cells = append(cells, sweep.Cell[ChaosClusterRecord]{
					Label: fmt.Sprintf("chaoscluster/%s/%s/%s", pol, p.name, hm),
					Run: func(ctx context.Context) (ChaosClusterRecord, error) {
						return runChaosClusterCell(ctx, cfg, pol, p, hm)
					},
				})
			}
		}
	}
	results, err := sweep.Run(ctx, cells, opts.sweep())
	if err != nil {
		return nil, fmt.Errorf("experiment: chaoscluster sweep: %w", err)
	}
	i := 0
	for _, pol := range d.Policies {
		d.Records[pol] = map[string]map[string]ChaosClusterRecord{}
		for _, p := range profiles {
			d.Records[pol][p.name] = map[string]ChaosClusterRecord{}
			for _, hm := range d.HealthModes {
				d.Records[pol][p.name][hm] = results[i]
				i++
			}
		}
	}
	return d, nil
}

// runChaosClusterCell drives one coordinator — one policy, one fault
// profile, with or without health tracking — through the fixed horizon.
// The seed deliberately excludes the health mode: naive and quarantine
// variants of a cell simulate the identical fleet, so the clean-baseline
// rows must come out bit-identical and every faulted comparison is
// apples-to-apples.
func runChaosClusterCell(ctx context.Context, cfg Config, policyName string, prof chaosClusterProfile, healthMode string) (ChaosClusterRecord, error) {
	policy, err := cluster.PolicyByName(policyName)
	if err != nil {
		return ChaosClusterRecord{}, err
	}
	n := chaosClusterNodes(cfg)
	plat := machine.E52690Server()
	specs := make([]cluster.NodeSpec, n)
	for i := 0; i < n; i++ {
		w := clusterWorkloads[i%len(clusterWorkloads)]
		wp, err := workload.ByName(w.name)
		if err != nil {
			return ChaosClusterRecord{}, err
		}
		specs[i] = cluster.NodeSpec{
			Name:     fmt.Sprintf("%s%d", w.name, i),
			Platform: plat,
			Specs:    []workload.Spec{{Profile: wp, Threads: w.threads}},
			NewController: func(p *machine.Platform) core.Controller {
				return core.NewPUPiL(core.DefaultOrdered(p))
			},
		}
	}
	var hc *cluster.HealthConfig
	if healthMode == "quarantine" {
		hc = &cluster.HealthConfig{}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Nodes:       specs,
		BudgetWatts: chaosClusterBudgetPerNode * float64(n),
		Epoch:       chaosClusterEpoch,
		Policy:      policy,
		Seed:        cfg.Seed ^ seedFor("chaoscluster", policyName, prof.name),
		Topology:    cluster.Topology{NodesPerRack: 4},
		Parallel:    1,
		Health:      hc,
	})
	if err != nil {
		return ChaosClusterRecord{}, err
	}

	// Schedule the profile and remember which nodes it dooms, so stranded
	// budget is measured against exactly the failed set.
	var faulted []int
	if prof.sc != nil {
		if prof.domain != "" {
			hit, err := coord.InjectDomainFault(prof.domain, *prof.sc)
			if err != nil {
				return ChaosClusterRecord{}, err
			}
			for i := 0; i < hit; i++ {
				faulted = append(faulted, i)
			}
		} else {
			if err := coord.InjectNodeFault(0, *prof.sc); err != nil {
				return ChaosClusterRecord{}, err
			}
			faulted = []int{0}
		}
	}

	var rec ChaosClusterRecord
	samples := 0
	for e := 1; e <= chaosClusterEpochs(cfg); e++ {
		if err := coord.StepContext(ctx, chaosClusterEpoch); err != nil {
			return ChaosClusterRecord{}, err
		}
		if err := coord.CheckInvariants(); err != nil {
			return ChaosClusterRecord{}, fmt.Errorf("epoch %d: %w", e, err)
		}
		if e <= chaosClusterOnsetEpochs {
			continue
		}
		sn := coord.Snapshot()
		rec.MeanPerf += sn.TotalRate
		for _, i := range faulted {
			if over := sn.Nodes[i].CapWatts - chaosClusterFloor; over > 0 {
				rec.StrandedWatts += over
			}
		}
		samples++
	}
	rec.MeanPerf /= float64(samples)
	rec.StrandedWatts /= float64(samples)
	final := coord.Snapshot()
	rec.ReclaimedWatts = final.ReclaimedWatts
	rec.Benched = final.Quarantined
	rec.Transitions = len(coord.HealthEvents())
	return rec, nil
}

// tableChaosClusterFrom renders the fleet chaos comparison: throughput,
// stranded and reclaimed watts, and quarantine activity, policy x profile
// x health mode.
func tableChaosClusterFrom(d *ChaosClusterData) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("ChaosCluster: naive vs quarantining coordinator under fleet faults (%d nodes, %.0f W/node)",
			chaosClusterNodes(d.Cfg), chaosClusterBudgetPerNode),
		"Policy", "Fault", "Health",
		"Perf (hb/s)", "Stranded (W)", "Reclaimed (W)", "Benched", "Transitions")
	for _, pol := range d.Policies {
		for _, p := range d.Profiles {
			for _, hm := range d.HealthModes {
				rec := d.Records[pol][p][hm]
				t.AddRow(pol, p, hm,
					report.F(rec.MeanPerf, 2),
					report.F(rec.StrandedWatts, 2),
					report.F(rec.ReclaimedWatts, 2),
					fmt.Sprintf("%d", rec.Benched),
					fmt.Sprintf("%d", rec.Transitions))
			}
		}
	}
	return t
}
