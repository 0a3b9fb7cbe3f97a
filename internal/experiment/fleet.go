package experiment

import (
	"context"
	"fmt"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

// The cluster, hierarchy and chaoscluster grids each run one coordinator
// per cell over the same fleet: PUPiL nodes on one heterogeneous workload
// rotation, stepped epoch by epoch through a per-node budget schedule.
// runFleet is that run; each grid is a set of fleetRun parameters.

// clusterWorkloads is the per-node workload rotation: node i of a fleet
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

// fleetFloor is every fleet's per-node safety floor: the coordinator
// enforces it, and stranded watts are measured above it.
const fleetFloor = 25.0

// fleetRun parameterizes one coordinator run.
type fleetRun struct {
	policy   string
	nodes    int
	topology cluster.Topology
	health   *cluster.HealthConfig // nil: the naive coordinator
	// salt is XORed into the Config seed.
	salt  uint64
	epoch time.Duration
	// phaseBudgets is each phase's per-node budget; every phase runs
	// epochsPerPhase epochs, and each phase after the first starts with a
	// SetBudget.
	phaseBudgets   []float64
	epochsPerPhase int
	// fault, when non-nil, is injected before the first epoch into node 0,
	// or into every node of faultDomain when that is set.
	fault       *faults.Scenario
	faultDomain string
	// skip is how many leading epochs the means leave out.
	skip int
}

// fleetResult is what one fleet run observed.
type fleetResult struct {
	domains int
	// phaseRate and phasePower are the fleet's TotalRate and TotalPower
	// over the trailing epoch at the end of each phase.
	phaseRate, phasePower []float64
	// minShare is the minimum, over all epochs, of the smallest node
	// assignment divided by the fair (even) share of the budget then in
	// force.
	minShare float64
	// meanRate and meanStranded average, over the epochs after skip, the
	// fleet's TotalRate and the watts parked above the floor on the
	// faulted nodes.
	meanRate, meanStranded float64
	// final is the snapshot after the last epoch; healthEvents counts the
	// health state transitions of the whole run.
	final        cluster.Snapshot
	healthEvents int
}

// runFleet builds one coordinator over the workload rotation and steps it
// through run's budget schedule, checking the coordinator's invariants
// after every epoch. Each node is a full simulated machine; the run itself
// is one sweep unit, so the coordinator steps its sessions sequentially
// (Parallel: 1) and the pool parallelism lives at the grid level.
func runFleet(ctx context.Context, cfg Config, run fleetRun) (fleetResult, error) {
	policy, err := cluster.PolicyByName(run.policy)
	if err != nil {
		return fleetResult{}, err
	}
	plat := machine.E52690Server()
	specs := make([]cluster.NodeSpec, run.nodes)
	for i := range specs {
		w := clusterWorkloads[i%len(clusterWorkloads)]
		prof, err := workload.ByName(w.name)
		if err != nil {
			return fleetResult{}, err
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
	n := float64(run.nodes)
	coord, err := cluster.NewCoordinator(cluster.Config{
		Nodes:       specs,
		BudgetWatts: run.phaseBudgets[0] * n,
		Epoch:       run.epoch,
		Policy:      policy,
		Seed:        cfg.Seed ^ run.salt,
		Topology:    run.topology,
		Parallel:    1,
		FloorWatts:  fleetFloor,
		Health:      run.health,
	})
	if err != nil {
		return fleetResult{}, err
	}

	// Schedule the fault and remember which nodes it dooms, so stranded
	// budget is measured against exactly the failed set.
	var doomed []int
	if run.fault != nil {
		if run.faultDomain != "" {
			hit, err := coord.InjectDomainFault(run.faultDomain, *run.fault)
			if err != nil {
				return fleetResult{}, err
			}
			for i := 0; i < hit; i++ {
				doomed = append(doomed, i)
			}
		} else {
			if err := coord.InjectNodeFault(0, *run.fault); err != nil {
				return fleetResult{}, err
			}
			doomed = []int{0}
		}
	}

	res := fleetResult{domains: coord.DomainCount(), minShare: 1}
	var sn cluster.Snapshot
	rateSum, strandedSum := 0.0, 0.0
	epoch, samples := 0, 0
	for phase, perNode := range run.phaseBudgets {
		budget := perNode * n
		if phase > 0 {
			if err := coord.SetBudget(budget); err != nil {
				return fleetResult{}, err
			}
		}
		fair := budget / n
		for e := 0; e < run.epochsPerPhase; e++ {
			epoch++
			if err := coord.StepContext(ctx, run.epoch); err != nil {
				return fleetResult{}, err
			}
			if err := coord.CheckInvariants(); err != nil {
				return fleetResult{}, fmt.Errorf("epoch %d: %w", epoch, err)
			}
			coord.SnapshotInto(&sn)
			for _, node := range sn.Nodes {
				if frac := node.CapWatts / fair; frac < res.minShare {
					res.minShare = frac
				}
			}
			if epoch <= run.skip {
				continue
			}
			rateSum += sn.TotalRate
			for _, i := range doomed {
				if over := sn.Nodes[i].CapWatts - fleetFloor; over > 0 {
					strandedSum += over
				}
			}
			samples++
		}
		res.phaseRate = append(res.phaseRate, sn.TotalRate)
		res.phasePower = append(res.phasePower, sn.TotalPower)
	}
	res.meanRate = rateSum / float64(samples)
	res.meanStranded = strandedSum / float64(samples)
	res.final = sn
	res.healthEvents = len(coord.HealthEvents())
	return res, nil
}
