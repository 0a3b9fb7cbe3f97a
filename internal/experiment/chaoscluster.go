package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/faults"
	"pupil/internal/report"
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

	type chaosClusterKey struct {
		policy string
		prof   chaosClusterProfile
		health string
	}
	var keys []chaosClusterKey
	for _, pol := range d.Policies {
		for _, p := range profiles {
			for _, hm := range d.HealthModes {
				keys = append(keys, chaosClusterKey{pol, p, hm})
			}
		}
	}
	results, err := runGrid(ctx, opts, "chaoscluster sweep", keys,
		func(k chaosClusterKey) string {
			return fmt.Sprintf("chaoscluster/%s/%s/%s", k.policy, k.prof.name, k.health)
		},
		func(ctx context.Context, k chaosClusterKey) (ChaosClusterRecord, error) {
			return runChaosClusterCell(ctx, cfg, k.policy, k.prof, k.health)
		})
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		put3(d.Records, k.policy, k.prof.name, k.health, results[i])
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
	run := fleetRun{
		policy:         policyName,
		nodes:          chaosClusterNodes(cfg),
		topology:       cluster.Topology{NodesPerRack: 4},
		salt:           seedFor("chaoscluster", policyName, prof.name),
		epoch:          chaosClusterEpoch,
		phaseBudgets:   []float64{chaosClusterBudgetPerNode},
		epochsPerPhase: chaosClusterEpochs(cfg),
		fault:          prof.sc,
		faultDomain:    prof.domain,
		skip:           chaosClusterOnsetEpochs,
	}
	if healthMode == "quarantine" {
		run.health = &cluster.HealthConfig{}
	}
	res, err := runFleet(ctx, cfg, run)
	if err != nil {
		return ChaosClusterRecord{}, err
	}
	return ChaosClusterRecord{
		MeanPerf:       res.meanRate,
		StrandedWatts:  res.meanStranded,
		ReclaimedWatts: res.final.ReclaimedWatts,
		Benched:        res.final.Quarantined,
		Transitions:    res.healthEvents,
	}, nil
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
