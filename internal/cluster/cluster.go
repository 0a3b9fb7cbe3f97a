// Package cluster implements cluster-level power capping on top of the
// node-level cappers: a coordinator owns a global power budget, assigns
// each node a cap, observes per-node demand, and shifts budget from nodes
// leaving headroom to nodes pegged at their caps.
//
// The paper positions node-level capping as the building block for exactly
// this (Section 6 cites Raghavendra et al.'s coordinated data-center
// management and Wang et al.'s enclosure-level control; the Soft-DVFS
// baseline's source is titled "Power capping: a prelude to power
// shifting"). Each node here is a full simulated machine running one of
// this repository's node-level controllers (RAPL, PUPiL, ...), stepped in
// lockstep epochs with the coordinator redistributing between epochs.
//
// At fleet scale the coordinator becomes a tree of budget domains
// (hierarchy.go): the datacenter budget splits across rows, row budgets
// across racks, rack budgets across nodes — the same policy machinery at
// every level, with leaf shards stepping their node sessions concurrently
// and only the periodic parent rebalance synchronizing.
package cluster

import (
	"time"

	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

// NodeSpec describes one machine in the cluster.
type NodeSpec struct {
	Name     string
	Platform *machine.Platform
	Specs    []workload.Spec
	// NewController builds the node-level capper; it is invoked once.
	NewController func(p *machine.Platform) core.Controller
}

// Config drives a cluster run.
type Config struct {
	Nodes       []NodeSpec
	BudgetWatts float64
	Epoch       time.Duration // coordinator period (default 5s)
	Duration    time.Duration // total simulated time (default 60s)
	Policy      Policy
	Seed        uint64
	// FloorWatts is the minimum cap any node may be assigned (default:
	// an estimate that keeps the node's firmware in a reachable regime).
	FloorWatts float64
	// Parallel bounds the worker pool Step uses to advance the node
	// sessions concurrently; values <= 0 mean GOMAXPROCS. Parallelism
	// never affects results — sessions are independent and demand is
	// collected position-indexed — only wall-clock time.
	Parallel int
	// Topology optionally groups the nodes into hierarchical budget
	// domains (racks, rows); the zero value keeps the flat coordinator.
	Topology Topology
	// Health enables fleet health tracking and quarantine (health.go);
	// nil keeps the naive coordinator — no tracking, no quarantine,
	// byte-identical behavior to previous releases.
	Health *HealthConfig
}

// Run executes the cluster scenario to completion and returns the final
// Snapshot.
func Run(cfg Config) (Snapshot, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * time.Second
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		return Snapshot{}, err
	}
	for t := time.Duration(0); t < cfg.Duration; t += c.cfg.Epoch {
		step := c.cfg.Epoch
		if rem := cfg.Duration - t; rem < step {
			step = rem
		}
		if err := c.Step(step); err != nil {
			return Snapshot{}, err
		}
	}
	return c.Snapshot(), nil
}

// normalize rescales an assignment to sum to budget while respecting the
// per-node floor. Assignments always sum to the budget on return: every
// watt of the budget stays allocated (Subramaniam & Feng's accounting
// argument — an unallocated watt is performance left on the table).
func normalize(caps []float64, budget, floor float64) {
	n := float64(len(caps))
	sum := 0.0
	for i := range caps {
		if caps[i] < floor {
			caps[i] = floor
		}
		sum += caps[i]
	}
	// Scale the above-floor portion so the total meets the budget
	// exactly.
	excess := sum - floor*n
	target := budget - floor*n
	if excess <= 0 {
		// Every node sits exactly at the floor, so there is no
		// above-floor mass to scale; distribute the remaining target
		// evenly instead of stranding budget - floor*N watts.
		for i := range caps {
			caps[i] = floor + target/n
		}
		return
	}
	scale := target / excess
	for i := range caps {
		caps[i] = floor + (caps[i]-floor)*scale
	}
}
