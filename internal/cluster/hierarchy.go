package cluster

import (
	"errors"
	"fmt"
)

// The domain tree turns the flat coordinator into hierarchical fleet
// coordination: a datacenter budget is split across rows, each row budget
// across its racks, and each rack budget across its member nodes — the
// FastCap shape (budget division with a per-level fairness floor) layered
// onto ControlPULP's split between fast local control loops and a slower
// global allocator. Every level runs the same Policy over its children's
// aggregated demand, and every level preserves the flat coordinator's
// accounting invariants: children sum to the parent's budget and no child
// falls below its floor (a node's floor, times the number of nodes the
// child covers).
//
// Only budget decisions flow through the tree. Node sessions are stepped
// concurrently and independently on the sweep pool with demand collected
// position-indexed into a shared buffer, so shards never lock against one
// another; the periodic top-down rebalance is the only synchronization
// point.

// Domain level names, root to leaves.
const (
	LevelDatacenter = "datacenter"
	LevelRow        = "row"
	LevelRack       = "rack"
	// LevelCluster is the single root/leaf domain of a flat cluster.
	LevelCluster = "cluster"
)

// Topology describes how a cluster's nodes are grouped into budget
// domains. The zero value is a flat cluster: one domain, the coordinator's
// policy splitting the global budget straight across nodes.
type Topology struct {
	// NodesPerRack groups consecutive nodes into racks of this size (the
	// last rack may be smaller). 0 disables the hierarchy.
	NodesPerRack int
	// RacksPerRow groups consecutive racks into rows of this size, adding
	// a third budget level (datacenter -> row -> rack). 0 omits the row
	// level (datacenter -> rack). Requires NodesPerRack > 0.
	RacksPerRow int
	// RebalanceEvery is how many leaf epochs pass between parent-level
	// rebalances (default 1: every epoch). Racks always rebalance their
	// own nodes every epoch — the fast inner loop — while the row and
	// datacenter splits move on this slower cadence.
	RebalanceEvery int
}

// Hierarchical reports whether the topology describes more than the flat
// single-domain cluster.
func (t Topology) Hierarchical() bool { return t.NodesPerRack > 0 }

// Validate rejects malformed topologies.
func (t Topology) Validate() error {
	if t.NodesPerRack < 0 {
		return fmt.Errorf("cluster: nodes per rack %d must be >= 0", t.NodesPerRack)
	}
	if t.RacksPerRow < 0 {
		return fmt.Errorf("cluster: racks per row %d must be >= 0", t.RacksPerRow)
	}
	if t.RacksPerRow > 0 && t.NodesPerRack == 0 {
		return errors.New("cluster: racks per row requires nodes per rack")
	}
	if t.RebalanceEvery < 0 {
		return fmt.Errorf("cluster: rebalance cadence %d must be >= 0", t.RebalanceEvery)
	}
	return nil
}

// domain is one node of the budget tree. Leaves own a contiguous range of
// cluster nodes; interior domains own their children's union. Budgets flow
// top-down (the parent's rebalance writes each child's budget), demand
// flows bottom-up (aggregated per step into demandSum).
type domain struct {
	name     string
	level    string
	parent   *domain
	children []*domain
	// lo, hi is the [lo, hi) range of cluster node indices this domain
	// covers; for a leaf these are its members.
	lo, hi int
	budget float64
	// demandSum aggregates the member nodes' mean power over the last
	// step, the signal the parent's policy splits on.
	demandSum float64
	// Rebalance scratch, interior domains only: the per-child slices the
	// policy and normalization run over, reused every epoch.
	childBudget, childDemand, childNext, childFloor []float64
}

// leaf reports whether the domain directly owns nodes.
func (d *domain) leaf() bool { return len(d.children) == 0 }

// nodes is the number of cluster nodes the domain covers.
func (d *domain) nodes() int { return d.hi - d.lo }

// buildTree constructs the domain tree for n nodes under topo, returning
// the root and every domain in breadth-first order (root first, then rows,
// then racks) — the order snapshots and metrics present domains in.
// Budgets are not assigned here; the coordinator seeds them from the
// initial per-node assignment so they are exact sums.
func buildTree(n int, topo Topology) (*domain, []*domain, error) {
	if err := topo.Validate(); err != nil {
		return nil, nil, err
	}
	if !topo.Hierarchical() {
		root := &domain{name: "cluster", level: LevelCluster, lo: 0, hi: n}
		return root, []*domain{root}, nil
	}

	// Racks: consecutive groups of NodesPerRack nodes.
	var racks []*domain
	for lo := 0; lo < n; lo += topo.NodesPerRack {
		hi := lo + topo.NodesPerRack
		if hi > n {
			hi = n
		}
		racks = append(racks, &domain{
			name:  fmt.Sprintf("rack%d", len(racks)),
			level: LevelRack,
			lo:    lo,
			hi:    hi,
		})
	}

	root := &domain{name: "dc", level: LevelDatacenter, lo: 0, hi: n}
	domains := []*domain{root}
	if topo.RacksPerRow > 0 {
		// Rows: consecutive groups of RacksPerRow racks.
		var rows []*domain
		for lo := 0; lo < len(racks); lo += topo.RacksPerRow {
			hi := lo + topo.RacksPerRow
			if hi > len(racks) {
				hi = len(racks)
			}
			row := &domain{
				name:     fmt.Sprintf("row%d", len(rows)),
				level:    LevelRow,
				children: racks[lo:hi],
				lo:       racks[lo].lo,
				hi:       racks[hi-1].hi,
			}
			for _, r := range racks[lo:hi] {
				r.parent = row
			}
			rows = append(rows, row)
		}
		root.children = rows
		for _, r := range rows {
			r.parent = root
		}
		domains = append(domains, rows...)
	} else {
		root.children = racks
		for _, r := range racks {
			r.parent = root
		}
	}
	domains = append(domains, racks...)

	// Size the interior rebalance scratch.
	for _, d := range domains {
		if d.leaf() {
			continue
		}
		k := len(d.children)
		d.childBudget = make([]float64, k)
		d.childDemand = make([]float64, k)
		d.childNext = make([]float64, k)
		d.childFloor = make([]float64, k)
	}
	return root, domains, nil
}

// seedFloors fills every interior domain's per-child floor: the node floor
// times the number of nodes the child covers — the FastCap-style fairness
// floor carried up the tree.
func seedFloors(domains []*domain, floor float64) {
	for _, d := range domains {
		for j, ch := range d.children {
			d.childFloor[j] = floor * float64(ch.nodes())
		}
	}
}

// DomainSnapshot is one budget domain's slice of a cluster Snapshot. Its
// JSON form is pupild's view of the domain.
type DomainSnapshot struct {
	// Name identifies the domain ("dc", "row0", "rack3"); Level is its
	// tier and Parent its enclosing domain's name ("" for the root).
	Name   string `json:"name"`
	Level  string `json:"level"`
	Parent string `json:"parent,omitempty"`
	// Nodes is how many cluster nodes the domain covers.
	Nodes int `json:"nodes"`
	// BudgetWatts is the budget currently delegated to the domain; child
	// domain budgets always sum to their parent's after a rebalance.
	BudgetWatts float64 `json:"budget_watts"`
	// MeanPowerWatts sums the member nodes' trailing-epoch mean power.
	MeanPowerWatts float64 `json:"mean_power_watts"`
	// FairShareMin is the domain's fairness figure: the minimum, over its
	// member nodes, of the node's assigned cap divided by the domain's
	// fair (even) per-node share. 1.0 means a perfectly even split.
	FairShareMin float64 `json:"fair_share_min"`
}

// normalizeFloors rescales an assignment to sum to budget while respecting
// a per-entry floor — the interior-domain counterpart of normalize, where
// children cover different node counts and therefore carry different
// floors. Every watt of the budget stays allocated on return.
func normalizeFloors(caps []float64, budget float64, floors []float64) {
	sum, floorSum := 0.0, 0.0
	for i := range caps {
		if caps[i] < floors[i] {
			caps[i] = floors[i]
		}
		sum += caps[i]
		floorSum += floors[i]
	}
	excess := sum - floorSum
	target := budget - floorSum
	if excess <= 0 {
		// Every child sits exactly at its floor: distribute the remaining
		// target in proportion to the floors (i.e. to node counts), so the
		// per-node share stays even instead of stranding watts.
		for i := range caps {
			caps[i] = floors[i] + target*(floors[i]/floorSum)
		}
		return
	}
	scale := target / excess
	for i := range caps {
		caps[i] = floors[i] + (caps[i]-floors[i])*scale
	}
}
