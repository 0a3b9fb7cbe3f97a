package cluster

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pupil/internal/driver"
)

func sumOf(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// snapCaps returns each node's cap as the coordinator's Snapshot reports
// it.
func snapCaps(c *Coordinator) []float64 {
	sn := c.Snapshot()
	caps := make([]float64, len(sn.Nodes))
	for i, n := range sn.Nodes {
		caps[i] = n.CapWatts
	}
	return caps
}

// snapshotsAfter runs ops on c in order and returns c's Snapshot before the
// first and after each one, so two runs can be compared at every step.
func snapshotsAfter(t *testing.T, c *Coordinator, ops ...func() error) []Snapshot {
	t.Helper()
	hist := []Snapshot{c.Snapshot()}
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		hist = append(hist, c.Snapshot())
	}
	return hist
}

// Regression: normalize used to return early when every cap sat at the
// floor, stranding budget - floor*N watts. The remainder must be
// distributed so assignments always sum to the budget.
func TestNormalizeAllAtFloor(t *testing.T) {
	caps := []float64{10, 20} // both clamp to the 25 W floor
	normalize(caps, 110, 25)
	if got := sumOf(caps); math.Abs(got-110) > 1e-9 {
		t.Errorf("all-at-floor normalize sums to %g, want the 110 W budget (caps %v)", got, caps)
	}
	if math.Abs(caps[0]-caps[1]) > 1e-9 {
		t.Errorf("remaining budget not split evenly: %v", caps)
	}
	for _, c := range caps {
		if c < 25-1e-9 {
			t.Errorf("cap %v below floor", caps)
		}
	}

	// Exactly-at-floor budget: nodes stay pinned to the floor.
	caps = []float64{5, 5, 5}
	normalize(caps, 75, 25)
	for _, c := range caps {
		if math.Abs(c-25) > 1e-9 {
			t.Errorf("floor-tight budget should pin every node at 25 W: %v", caps)
		}
	}
}

// Regression: SetNodeCap used to mutate the assignment without recording
// it. The reassignment must show in the very next Snapshot, before any
// Step, and leave the other node's cap alone until that Step rebalances.
func TestSetNodeCapVisibleInSnapshot(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       lightCluster(t),
		BudgetWatts: 200,
		Epoch:       time.Second,
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetNodeCap(0, 120); err != nil {
		t.Fatal(err)
	}
	if caps := snapCaps(c); caps[0] != 120 || caps[1] != 100 {
		t.Errorf("snapshot caps %v after SetNodeCap(0, 120), want [120 100]", caps)
	}
}

// spyPolicy records the demand vector each rebalance observes and keeps
// the assignment unchanged (even-policy behaviour).
type spyPolicy struct {
	observed [][]float64
}

func (s *spyPolicy) Name() string { return "spy" }

func (s *spyPolicy) Rebalance(next, assigned, meanPower []float64) {
	s.observed = append(s.observed, append([]float64(nil), meanPower...))
	copy(next, assigned)
}

// Regression: Step used to window demand over the configured epoch even
// when advancing by d != Epoch, mixing stale pre-step samples into the
// rebalance decision. The demand a partial step observes must equal the
// node's mean power over exactly the elapsed step.
func TestStepWindowsOverElapsedStep(t *testing.T) {
	specs := mixedCluster(t, "RAPL")[:2]
	spy := &spyPolicy{}
	cfg := Config{
		Nodes:       specs,
		BudgetWatts: 300,
		Epoch:       10 * time.Second,
		Policy:      spy,
		Seed:        5,
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One full epoch at the even 150 W split, then raise the budget (180 W
	// each) and take a partial 2 s step: the power level during those 2 s
	// differs from the trailing-epoch mean, so the two windows disagree.
	if err := c.Step(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBudget(360); err != nil {
		t.Fatal(err)
	}
	if err := c.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(spy.observed) != 2 {
		t.Fatalf("spy observed %d rebalances, want 2", len(spy.observed))
	}

	// Replay each node standalone through the same cap schedule; the
	// coordinator's demand measurement must match the replayed session's
	// mean power over exactly the elapsed step.
	for i, spec := range specs {
		s, err := driver.NewSession(driver.Scenario{
			Platform:   spec.Platform,
			Specs:      spec.Specs,
			CapWatts:   150,
			Controller: spec.NewController(spec.Platform),
			Seed:       cfg.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Advance(10 * time.Second)
		if err := s.SetCap(180); err != nil {
			t.Fatal(err)
		}
		s.Advance(2 * time.Second)
		want := s.MeanPower(2 * time.Second)
		if got := spy.observed[1][i]; got != want {
			t.Errorf("node %d: partial 2s step observed %.6f W of demand, want the 2s-window mean %.6f W",
				i, got, want)
		}
	}
}

// lightCluster builds two lightly loaded nodes — cheap enough for the
// randomized property sequences.
func lightCluster(t *testing.T) []NodeSpec {
	return nodes(t, "RAPL", [][2]interface{}{
		{"kmeans", 8},
		{"STREAM", 8},
	})
}

// TestCoordinatorProperties drives random Step/SetBudget/SetNodeCap
// sequences against every policy and asserts the accounting invariants:
// after any rebalancing operation the assignment sums to the budget within
// 1e-9 and no node is ever below the floor, as the Snapshot reports them.
func TestCoordinatorProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-epoch sequences")
	}
	policies := []Policy{EvenPolicy{}, DemandShiftPolicy{}, ProportionalSharePolicy{}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xc0ffee))
			c, err := NewCoordinator(Config{
				Nodes:       lightCluster(t),
				BudgetWatts: 200,
				Epoch:       time.Second,
				Policy:      pol,
				Seed:        11,
			})
			if err != nil {
				t.Fatal(err)
			}
			floor := 25.0
			for op := 0; op < 40; op++ {
				balanced := true // does the op restore sum == budget?
				switch k := rng.Intn(10); {
				case k < 6:
					d := time.Duration(1+rng.Intn(6)) * 250 * time.Millisecond
					if err := c.Step(d); err != nil {
						t.Fatalf("op %d: Step: %v", op, err)
					}
				case k < 8:
					budget := floor*2 + rng.Float64()*300
					if err := c.SetBudget(budget); err != nil {
						t.Fatalf("op %d: SetBudget(%.1f): %v", op, budget, err)
					}
				default:
					i := rng.Intn(2)
					watts := floor + rng.Float64()*150
					if err := c.SetNodeCap(i, watts); err != nil {
						t.Fatalf("op %d: SetNodeCap(%d, %.1f): %v", op, i, watts, err)
					}
					balanced = false // rebalanced only on the next Step
					if got := snapCaps(c)[i]; got != watts {
						t.Fatalf("op %d: SetNodeCap applied %.4f, want %.4f", op, got, watts)
					}
				}
				caps, budget := snapCaps(c), c.Snapshot().Budget
				for i, a := range caps {
					if a < floor-1e-9 {
						t.Fatalf("op %d: node %d assigned %.4f W, below the %.0f W floor", op, i, a, floor)
					}
				}
				if balanced {
					if got := sumOf(caps); math.Abs(got-budget) > 1e-9 {
						t.Fatalf("op %d: assignment sums to %.12f, want budget %.12f", op, got, budget)
					}
				}
			}
		})
	}
}

// TestParallelStepDeterminism: stepping the cluster on an 8-worker pool
// must produce Snapshots byte-identical to sequential stepping after every
// operation, including live budget and per-node reassignments.
func TestParallelStepDeterminism(t *testing.T) {
	run := func(parallel int) []Snapshot {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "RAPL"),
			BudgetWatts: 400,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        9,
			Parallel:    parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		step := func() error { return c.Step(time.Second) }
		return snapshotsAfter(t, c, step, step, step,
			func() error { return c.SetBudget(320) },
			func() error { return c.Step(750 * time.Millisecond) },
			func() error { return c.SetNodeCap(2, 60) },
			step)
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Step diverged from sequential Step")
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
		t.Fatal("parallel Snapshots are not byte-identical to sequential Snapshots")
	}
}

func TestProportionalSharePolicyMechanics(t *testing.T) {
	p := ProportionalSharePolicy{MinShareFrac: 0.5, Smoothing: 1}
	assigned := []float64{100, 100}
	meanPower := []float64{90, 30}
	next := make([]float64, len(assigned))
	p.Rebalance(next, assigned, meanPower)
	if next[0] <= next[1] {
		t.Errorf("higher-demand node did not get the larger share: %v", next)
	}
	// Demand-proportional targets: 200*90/120 = 150 and 200*30/120 = 50,
	// both above the 50 W starvation bound.
	if math.Abs(next[0]-150) > 1e-9 || math.Abs(next[1]-50) > 1e-9 {
		t.Errorf("targets %v, want [150 50]", next)
	}

	// Max-starvation bound: a node with (near-)zero demand keeps
	// MinShareFrac of its even share.
	p.Rebalance(next, []float64{100, 100}, []float64{100, 0})
	if next[1] < 50-1e-9 {
		t.Errorf("starved node squeezed to %.2f W, bound is 50 W", next[1])
	}

	// Smoothing halves the gap instead of jumping.
	smooth := ProportionalSharePolicy{MinShareFrac: 0.5, Smoothing: 0.5}
	smooth.Rebalance(next, []float64{100, 100}, []float64{90, 30})
	if math.Abs(next[0]-125) > 1e-9 || math.Abs(next[1]-75) > 1e-9 {
		t.Errorf("smoothed targets %v, want [125 75]", next)
	}

	// No demand signal at all: keep the assignment.
	ProportionalSharePolicy{}.Rebalance(next, []float64{80, 120}, []float64{0, 0})
	if next[0] != 80 || next[1] != 120 {
		t.Errorf("zero-demand rebalance changed caps: %v", next)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "even", "demand-shift", "proportional"} {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
		if name != "" && p.Name() != name {
			t.Errorf("PolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := PolicyByName("fastest"); err == nil {
		t.Error("PolicyByName accepted an unknown policy")
	}
}
