package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pupil/internal/driver"
)

// gridCluster builds n RAPL nodes alternating power-hungry and lightly
// loaded workloads, so demand is heterogeneous across (and within) racks.
func gridCluster(t *testing.T, n int) []NodeSpec {
	t.Helper()
	kinds := [][2]interface{}{
		{"blackscholes", 32},
		{"kmeans", 8},
		{"swaptions", 32},
		{"STREAM", 8},
	}
	loads := make([][2]interface{}, n)
	for i := range loads {
		loads[i] = kinds[i%len(kinds)]
	}
	return nodes(t, "RAPL", loads)
}

func TestTopologyValidation(t *testing.T) {
	bad := []Topology{
		{NodesPerRack: -1},
		{NodesPerRack: 2, RacksPerRow: -1},
		{RacksPerRow: 2}, // rows without racks
		{NodesPerRack: 2, RebalanceEvery: -1},
	}
	for _, topo := range bad {
		if err := topo.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", topo)
		}
		if _, err := NewCoordinator(Config{
			Nodes:       lightCluster(t),
			BudgetWatts: 200,
			Topology:    topo,
		}); err == nil {
			t.Errorf("NewCoordinator accepted topology %+v", topo)
		}
	}
	good := []Topology{
		{},
		{NodesPerRack: 2},
		{NodesPerRack: 1, RacksPerRow: 2, RebalanceEvery: 4},
	}
	for _, topo := range good {
		if err := topo.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", topo, err)
		}
	}
}

func TestBuildTreeShape(t *testing.T) {
	// 10 nodes in racks of 4: racks of 4, 4, and 2 under the root.
	root, domains, err := buildTree(10, Topology{NodesPerRack: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 4 {
		t.Fatalf("got %d domains, want dc + 3 racks", len(domains))
	}
	if root.level != LevelDatacenter || len(root.children) != 3 {
		t.Fatalf("root %q has %d children, want 3 racks", root.level, len(root.children))
	}
	if last := root.children[2]; last.nodes() != 2 {
		t.Errorf("uneven last rack covers %d nodes, want 2", last.nodes())
	}

	// 12 nodes, racks of 2, rows of 3: dc -> 2 rows -> 6 racks, breadth
	// first.
	root, domains, err = buildTree(12, Topology{NodesPerRack: 2, RacksPerRow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 1+2+6 {
		t.Fatalf("got %d domains, want 9", len(domains))
	}
	wantLevels := []string{
		LevelDatacenter, LevelRow, LevelRow,
		LevelRack, LevelRack, LevelRack, LevelRack, LevelRack, LevelRack,
	}
	covered := 0
	for i, d := range domains {
		if d.level != wantLevels[i] {
			t.Errorf("domain %d (%s) level %q, want %q (breadth-first order)", i, d.name, d.level, wantLevels[i])
		}
		if d != root && d.parent == nil {
			t.Errorf("domain %s has no parent", d.name)
		}
		if d.leaf() {
			covered += d.nodes()
		}
		// Children tile the parent's node range exactly.
		if !d.leaf() {
			lo := d.lo
			for _, ch := range d.children {
				if ch.lo != lo {
					t.Errorf("domain %s: child %s starts at %d, want %d", d.name, ch.name, ch.lo, lo)
				}
				lo = ch.hi
			}
			if lo != d.hi {
				t.Errorf("domain %s: children end at %d, want %d", d.name, lo, d.hi)
			}
		}
	}
	if covered != 12 {
		t.Errorf("leaves cover %d nodes, want 12", covered)
	}

	// Flat: one root/leaf domain.
	root, domains, err = buildTree(5, Topology{})
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != 1 || !root.leaf() || root.nodes() != 5 {
		t.Fatalf("flat tree: %d domains, root leaf=%v nodes=%d", len(domains), root.leaf(), root.nodes())
	}
}

func TestNormalizeFloors(t *testing.T) {
	// Mixed floors (racks of different sizes): the sum lands on the budget
	// and every entry respects its own floor.
	caps := []float64{120, 40, 80}
	floors := []float64{50, 25, 75}
	normalizeFloors(caps, 300, floors)
	if got := sumOf(caps); math.Abs(got-300) > 1e-9 {
		t.Errorf("normalizeFloors sums to %g, want 300 (%v)", got, caps)
	}
	for i := range caps {
		if caps[i] < floors[i]-1e-9 {
			t.Errorf("entry %d = %g below its %g floor", i, caps[i], floors[i])
		}
	}

	// All at their floors: the remainder is split proportionally to the
	// floors so the per-node share stays even.
	caps = []float64{10, 10}
	floors = []float64{50, 100} // e.g. a 2-node and a 4-node rack
	normalizeFloors(caps, 300, floors)
	if got := sumOf(caps); math.Abs(got-300) > 1e-9 {
		t.Errorf("all-at-floor normalizeFloors sums to %g, want 300 (%v)", got, caps)
	}
	if math.Abs(caps[0]-100) > 1e-9 || math.Abs(caps[1]-200) > 1e-9 {
		t.Errorf("remainder not split per-node-evenly: %v, want [100 200]", caps)
	}
}

// checkTreeInvariants asserts the flat coordinator's accounting invariants
// at every level of the budget-domain tree: the root carries the global
// budget, every interior domain's children sum to its budget, every domain
// sits at or above its fairness floor, and (when no manual reassignment is
// pending) every leaf's member caps sum to the leaf budget. The Snapshot
// must report exactly those caps and domain budgets.
func checkTreeInvariants(t *testing.T, c *Coordinator, balanced bool, op int) {
	t.Helper()
	const eps = 1e-6
	if math.Abs(c.root.budget-c.budget) > eps {
		t.Fatalf("op %d: root budget %.9f != global budget %.9f", op, c.root.budget, c.budget)
	}
	for _, d := range c.domains {
		if floor := c.floor * float64(d.nodes()); d.budget < floor-eps {
			t.Fatalf("op %d: domain %s budget %.6f below its %.6f floor", op, d.name, d.budget, floor)
		}
		if !d.leaf() {
			sum := 0.0
			for _, ch := range d.children {
				sum += ch.budget
			}
			if math.Abs(sum-d.budget) > eps {
				t.Fatalf("op %d: domain %s children sum to %.9f, want budget %.9f", op, d.name, sum, d.budget)
			}
		} else if balanced {
			if sum := sumOf(c.assigned[d.lo:d.hi]); math.Abs(sum-d.budget) > eps {
				t.Fatalf("op %d: leaf %s caps sum to %.9f, want budget %.9f", op, d.name, sum, d.budget)
			}
		}
	}
	for i, a := range c.assigned {
		if a < c.floor-1e-9 {
			t.Fatalf("op %d: node %d assigned %.6f W, below the %.0f W floor", op, i, a, c.floor)
		}
	}
	sn := c.Snapshot()
	for i, n := range sn.Nodes {
		if n.CapWatts != c.assigned[i] {
			t.Fatalf("op %d: snapshot reports node %d at %.9f W, assigned %.9f W", op, i, n.CapWatts, c.assigned[i])
		}
	}
	if len(sn.Domains) != len(c.domains) {
		t.Fatalf("op %d: snapshot has %d domains, want %d", op, len(sn.Domains), len(c.domains))
	}
	for i, d := range c.domains {
		if ds := sn.Domains[i]; ds.Name != d.name || ds.BudgetWatts != d.budget {
			t.Fatalf("op %d: snapshot domain %s at %.9f W, want %s at %.9f W", op, ds.Name, ds.BudgetWatts, d.name, d.budget)
		}
	}
}

// TestHierarchyProperties drives random Step/SetBudget/SetNodeCap
// sequences against a 3-level tree (datacenter -> 2 rows -> 6 racks over
// 12 nodes) for every policy and asserts the per-level accounting
// invariants after every operation.
func TestHierarchyProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-epoch sequences")
	}
	policies := []Policy{EvenPolicy{}, DemandShiftPolicy{}, ProportionalSharePolicy{}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xfacade))
			c, err := NewCoordinator(Config{
				Nodes:       gridCluster(t, 12),
				BudgetWatts: 1200,
				Epoch:       time.Second,
				Policy:      pol,
				Seed:        13,
				Topology:    Topology{NodesPerRack: 2, RacksPerRow: 3, RebalanceEvery: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.DomainCount() != 9 {
				t.Fatalf("DomainCount = %d, want 9", c.DomainCount())
			}
			for op := 0; op < 30; op++ {
				balanced := true
				switch k := rng.Intn(10); {
				case k < 6:
					d := time.Duration(1+rng.Intn(4)) * 250 * time.Millisecond
					if err := c.Step(d); err != nil {
						t.Fatalf("op %d: Step: %v", op, err)
					}
				case k < 8:
					budget := 25*12 + rng.Float64()*1200
					if err := c.SetBudget(budget); err != nil {
						t.Fatalf("op %d: SetBudget(%.1f): %v", op, budget, err)
					}
				default:
					i := rng.Intn(12)
					watts := 25 + rng.Float64()*150
					if err := c.SetNodeCap(i, watts); err != nil {
						t.Fatalf("op %d: SetNodeCap(%d, %.1f): %v", op, i, watts, err)
					}
					balanced = false
				}
				checkTreeInvariants(t, c, balanced, op)
			}
		})
	}
}

// TestHierarchyParallelStepDeterminism: hierarchical stepping must be
// byte-identical at parallelism 1 vs 8, across parent rebalances and live
// reassignments, in the Snapshot after every operation.
func TestHierarchyParallelStepDeterminism(t *testing.T) {
	run := func(parallel int) []Snapshot {
		c, err := NewCoordinator(Config{
			Nodes:       gridCluster(t, 8),
			BudgetWatts: 800,
			Epoch:       time.Second,
			Policy:      ProportionalSharePolicy{},
			Seed:        17,
			Parallel:    parallel,
			Topology:    Topology{NodesPerRack: 2, RacksPerRow: 2, RebalanceEvery: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		step := func() error { return c.Step(time.Second) }
		return snapshotsAfter(t, c, step, step, step, step,
			func() error { return c.SetBudget(600) },
			func() error { return c.SetNodeCap(3, 60) },
			func() error { return c.Step(750 * time.Millisecond) })
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("hierarchical parallel Step diverged from sequential Step")
	}
	a, err := json.Marshal(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("hierarchical parallel run is not byte-identical to sequential run")
	}
}

// TestHierarchyEvenMatchesFlat: under the even policy the tree changes
// nothing — every level splits evenly, so per-node caps match the flat
// coordinator's.
func TestHierarchyEvenMatchesFlat(t *testing.T) {
	run := func(topo Topology) []float64 {
		c, err := NewCoordinator(Config{
			Nodes:       gridCluster(t, 8),
			BudgetWatts: 800,
			Epoch:       time.Second,
			Seed:        21,
			Topology:    topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		return snapCaps(c)
	}
	flat := run(Topology{})
	tree := run(Topology{NodesPerRack: 2, RacksPerRow: 2})
	for i := range flat {
		if math.Abs(flat[i]-tree[i]) > 1e-9 {
			t.Fatalf("even split diverged under the hierarchy: flat %v vs tree %v", flat, tree)
		}
	}
}

// TestHierarchyRebalanceCadence: parent domains only re-split on the
// RebalanceEvery cadence — the ControlPULP split between the fast rack
// loop and the slower global allocator.
func TestHierarchyRebalanceCadence(t *testing.T) {
	c, err := NewCoordinator(Config{
		// rack0 = two hungry nodes, rack1 = two light nodes.
		Nodes: nodes(t, "RAPL", [][2]interface{}{
			{"blackscholes", 32}, {"swaptions", 32},
			{"kmeans", 8}, {"STREAM", 8},
		}),
		BudgetWatts: 400,
		Epoch:       time.Second,
		Policy:      ProportionalSharePolicy{},
		Seed:        5,
		Topology:    Topology{NodesPerRack: 2, RebalanceEvery: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rackBudgets := func() []float64 {
		var out []float64
		for _, d := range c.domains {
			if d.leaf() {
				out = append(out, d.budget)
			}
		}
		return out
	}
	initial := rackBudgets()
	for step := 1; step <= 3; step++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		moved := false
		for i, b := range rackBudgets() {
			if math.Abs(b-initial[i]) > 1e-9 {
				moved = true
			}
		}
		if step < 3 && moved {
			t.Fatalf("step %d: rack budgets moved before the cadence: %v", step, rackBudgets())
		}
		if step == 3 && !moved {
			t.Fatalf("step 3: rack budgets never re-split despite uneven demand: %v", rackBudgets())
		}
	}
}

// TestHierarchySnapshotDomains: the snapshot exposes the whole tree with
// consistent parents, budgets, power roll-ups, and fairness figures.
func TestHierarchySnapshotDomains(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       gridCluster(t, 8),
		BudgetWatts: 800,
		Epoch:       time.Second,
		Policy:      DemandShiftPolicy{},
		Seed:        3,
		Topology:    Topology{NodesPerRack: 2, RacksPerRow: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	sn := c.Snapshot()
	if len(sn.Domains) != 7 {
		t.Fatalf("snapshot has %d domains, want 7 (dc + 2 rows + 4 racks)", len(sn.Domains))
	}
	byName := map[string]DomainSnapshot{}
	for _, d := range sn.Domains {
		byName[d.Name] = d
	}
	root := byName["dc"]
	if root.Parent != "" || root.Level != LevelDatacenter || root.Nodes != 8 {
		t.Fatalf("root domain malformed: %+v", root)
	}
	if math.Abs(root.BudgetWatts-sn.Budget) > 1e-9 {
		t.Errorf("root budget %.3f != cluster budget %.3f", root.BudgetWatts, sn.Budget)
	}
	if math.Abs(root.MeanPowerWatts-sn.TotalPower) > 1e-9 {
		t.Errorf("root power %.3f != cluster total %.3f", root.MeanPowerWatts, sn.TotalPower)
	}
	for _, d := range sn.Domains {
		if d.Name == "dc" {
			continue
		}
		parent, ok := byName[d.Parent]
		if !ok {
			t.Fatalf("domain %s has unknown parent %q", d.Name, d.Parent)
		}
		if d.BudgetWatts > parent.BudgetWatts+1e-9 {
			t.Errorf("domain %s budget %.3f exceeds parent %s budget %.3f",
				d.Name, d.BudgetWatts, parent.Name, parent.BudgetWatts)
		}
		if d.FairShareMin <= 0 || d.FairShareMin > float64(d.Nodes)+1e-9 {
			t.Errorf("domain %s fairness %.3f out of range", d.Name, d.FairShareMin)
		}
	}
	// A flat snapshot carries no domains, keeping its JSON unchanged.
	flat, err := NewCoordinator(Config{Nodes: lightCluster(t), BudgetWatts: 200})
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.Snapshot().Domains; got != nil {
		t.Errorf("flat snapshot carries domains: %v", got)
	}
}

// Edge cases the hierarchy must honor just like the flat coordinator:
// single-node clusters, zero/negative budgets, and budgets smaller than
// the sum of floors.
func TestCoordinatorEdgeCases(t *testing.T) {
	single := nodes(t, "RAPL", [][2]interface{}{{"kmeans", 8}})
	topos := []Topology{{}, {NodesPerRack: 1}, {NodesPerRack: 1, RacksPerRow: 1}}
	for _, topo := range topos {
		// A single-node cluster is legal at every topology: the node gets
		// the whole budget and keeps it through stepping and SetBudget.
		c, err := NewCoordinator(Config{
			Nodes:       single,
			BudgetWatts: 100,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Topology:    topo,
		})
		if err != nil {
			t.Fatalf("single-node cluster with %+v: %v", topo, err)
		}
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		if got := snapCaps(c)[0]; math.Abs(got-100) > 1e-9 {
			t.Errorf("single node assigned %.3f W, want the full 100 W budget", got)
		}
		if err := c.SetBudget(60); err != nil {
			t.Fatal(err)
		}
		if got := snapCaps(c)[0]; math.Abs(got-60) > 1e-9 {
			t.Errorf("single node assigned %.3f W after SetBudget, want 60", got)
		}

		// Zero and negative budgets are invalid caps.
		for _, bad := range []float64{0, -50} {
			if _, err := NewCoordinator(Config{Nodes: single, BudgetWatts: bad, Topology: topo}); !errors.Is(err, driver.ErrInvalidCap) {
				t.Errorf("budget %g with %+v: err = %v, want ErrInvalidCap", bad, topo, err)
			}
		}
	}

	// A budget smaller than the sum of floors cannot be satisfied, flat or
	// hierarchical.
	four := gridCluster(t, 4)
	for _, topo := range []Topology{{}, {NodesPerRack: 2}} {
		if _, err := NewCoordinator(Config{
			Nodes:       four,
			BudgetWatts: 100,
			FloorWatts:  30, // 4 x 30 = 120 > 100
			Topology:    topo,
		}); err == nil {
			t.Errorf("accepted a 100 W budget under 120 W of floors with %+v", topo)
		}
	}
}
