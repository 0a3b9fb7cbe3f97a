// Cluster: power shifting across machines. A coordinator owns a global
// 400 W budget over four simulated servers — two busy compute nodes and two
// lightly loaded nodes — each running PUPiL as its node-level capper. The
// demand-shift policy moves budget from nodes with headroom to nodes pegged
// at their caps, the cluster-level architecture the paper's node-level
// capping enables ("power capping: a prelude to power shifting").
package main

import (
	"fmt"
	"log"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

func node(name, bench string, threads int, tech string) cluster.NodeSpec {
	prof, err := workload.ByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	return cluster.NodeSpec{
		Name:     name,
		Platform: machine.E52690Server(),
		Specs:    []workload.Spec{{Profile: prof, Threads: threads}},
		NewController: func(p *machine.Platform) core.Controller {
			if tech == "PUPiL" {
				return core.NewPUPiL(core.DefaultOrdered(p))
			}
			return control.NewRAPLOnly()
		},
	}
}

// run steps the cluster through 90 s of 5 s epochs and returns its final
// snapshot and its cap history: each node's cap before the first epoch and
// after every one.
func run(policy cluster.Policy, tech string) (cluster.Snapshot, [][]float64) {
	c, err := cluster.NewCoordinator(cluster.Config{
		Nodes: []cluster.NodeSpec{
			node("compute-1", "blackscholes", 32, tech),
			node("compute-2", "swaptions", 32, tech),
			node("light-1", "kmeans", 8, tech),
			node("light-2", "STREAM", 8, tech),
		},
		BudgetWatts: 400,
		Epoch:       5 * time.Second,
		Policy:      policy,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var history [][]float64
	sn := c.Snapshot()
	for {
		caps := make([]float64, len(sn.Nodes))
		for i, n := range sn.Nodes {
			caps[i] = n.CapWatts
		}
		history = append(history, caps)
		if c.Now() >= 90*time.Second {
			return sn, history
		}
		if err := c.Step(c.Epoch()); err != nil {
			log.Fatal(err)
		}
		c.SnapshotInto(&sn)
	}
}

func main() {
	fmt.Printf("four PUPiL nodes under a 400 W cluster budget\n\n")
	even, _ := run(cluster.EvenPolicy{}, "PUPiL")
	shift, history := run(cluster.DemandShiftPolicy{}, "PUPiL")
	for _, sn := range []cluster.Snapshot{even, shift} {
		fmt.Printf("policy %-13s total perf %.2f u/s, total power %.1f W\n",
			sn.Policy+":", sn.TotalRate, sn.TotalPower)
		for _, n := range sn.Nodes {
			fmt.Printf("  %-10s cap %6.1f W  power %6.1f W  perf %6.2f u/s\n",
				n.Name, n.CapWatts, n.MeanPower, n.MeanRate)
		}
	}

	fmt.Println("\ncap assignments over time (demand-shift):")
	fmt.Printf("%6s %10s %10s %10s %10s\n", "epoch", "compute-1", "compute-2", "light-1", "light-2")
	for i, caps := range history {
		if i%3 != 0 {
			continue
		}
		fmt.Printf("%6d %10.1f %10.1f %10.1f %10.1f\n", i, caps[0], caps[1], caps[2], caps[3])
	}

	rapl, _ := run(cluster.DemandShiftPolicy{}, "RAPL")
	fmt.Printf("\nsame cluster with RAPL-only nodes: %.2f u/s — the paper's node-level\n", rapl.TotalRate)
	fmt.Println("advantage compounds: better node cappers make the shifted watts worth more.")
}
