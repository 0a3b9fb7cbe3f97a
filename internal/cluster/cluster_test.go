package cluster

import (
	"math"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

func nodes(t *testing.T, tech string, loads [][2]interface{}) []NodeSpec {
	t.Helper()
	var out []NodeSpec
	for i, l := range loads {
		name := l[0].(string)
		threads := l[1].(int)
		prof, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plat := machine.E52690Server()
		ctor := func(p *machine.Platform) core.Controller {
			if tech == "PUPiL" {
				return core.NewPUPiL(core.DefaultOrdered(p))
			}
			return control.NewRAPLOnly()
		}
		out = append(out, NodeSpec{
			Name:          name + "-node",
			Platform:      plat,
			Specs:         []workload.Spec{{Profile: prof, Threads: threads}},
			NewController: ctor,
		})
		_ = i
	}
	return out
}

// mixedCluster has two power-hungry compute nodes and two lightly loaded
// nodes that cannot use an even share of the budget — the configuration
// where demand shifting pays.
func mixedCluster(t *testing.T, tech string) []NodeSpec {
	return nodes(t, tech, [][2]interface{}{
		{"blackscholes", 32},
		{"swaptions", 32},
		{"kmeans", 8},
		{"STREAM", 8},
	})
}

func TestClusterValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("Run accepted empty config")
	}
	if _, err := Run(Config{Nodes: mixedCluster(t, "RAPL")}); err == nil {
		t.Error("Run accepted zero budget")
	}
	if _, err := Run(Config{Nodes: mixedCluster(t, "RAPL"), BudgetWatts: 10}); err == nil {
		t.Error("Run accepted budget below the per-node floor")
	}
}

func TestClusterRespectsBudget(t *testing.T) {
	for _, policy := range []Policy{EvenPolicy{}, DemandShiftPolicy{}} {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "PUPiL"),
			BudgetWatts: 400,
			Epoch:       5 * time.Second,
			Policy:      policy,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for c.Now() < 60*time.Second {
			if err := c.Step(c.Epoch()); err != nil {
				t.Fatal(err)
			}
			if caps := snapCaps(c); math.Abs(sumOf(caps)-400) > 1e-6 {
				t.Fatalf("%s at %v: assignment %v sums to %.2f, want the 400 W budget",
					policy.Name(), c.Now(), caps, sumOf(caps))
			}
		}
		if sn := c.Snapshot(); sn.TotalPower > 400*1.05 {
			t.Errorf("%s: cluster draws %.1f W over a 400 W budget", policy.Name(), sn.TotalPower)
		}
	}
}

// TestDemandShiftBeatsEvenSplit: with heterogeneous nodes, moving budget
// from headroom nodes to pegged nodes must raise cluster throughput.
func TestDemandShiftBeatsEvenSplit(t *testing.T) {
	run := func(p Policy) Snapshot {
		res, err := Run(Config{
			Nodes:       mixedCluster(t, "PUPiL"),
			BudgetWatts: 400,
			Epoch:       5 * time.Second,
			Duration:    90 * time.Second,
			Policy:      p,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	even := run(EvenPolicy{})
	shift := run(DemandShiftPolicy{})
	if shift.TotalRate <= even.TotalRate*1.02 {
		t.Errorf("demand shifting %.2f should beat even split %.2f on a heterogeneous cluster",
			shift.TotalRate, even.TotalRate)
	}
	// The donors must actually have donated.
	final := make([]float64, len(shift.Nodes))
	for i, n := range shift.Nodes {
		final[i] = n.CapWatts
	}
	if final[2] >= 100 || final[3] >= 100 {
		t.Errorf("headroom nodes kept their even share: final caps %v", final)
	}
	if final[0] <= 100 && final[1] <= 100 {
		t.Errorf("no hungry node received budget: final caps %v", final)
	}
}

// TestPUPiLNodesBeatRAPLNodes: the paper's node-level result compounds at
// cluster level.
func TestPUPiLNodesBeatRAPLNodes(t *testing.T) {
	run := func(tech string) Snapshot {
		res, err := Run(Config{
			Nodes:       mixedCluster(t, tech),
			BudgetWatts: 400,
			Epoch:       5 * time.Second,
			Duration:    90 * time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rapl := run("RAPL")
	pupil := run("PUPiL")
	if pupil.TotalRate <= rapl.TotalRate*1.1 {
		t.Errorf("PUPiL nodes %.2f should clearly beat RAPL nodes %.2f cluster-wide",
			pupil.TotalRate, rapl.TotalRate)
	}
}

func TestDemandShiftPolicyMechanics(t *testing.T) {
	p := DemandShiftPolicy{ShiftFrac: 0.5, PeggedFrac: 0.94}
	assigned := []float64{100, 100}
	meanPower := []float64{50, 99} // node 0 has headroom, node 1 pegged
	next := make([]float64, len(assigned))
	p.Rebalance(next, assigned, meanPower)
	if next[0] >= 100 {
		t.Errorf("donor kept its cap: %v", next)
	}
	if next[1] <= 100 {
		t.Errorf("hungry node not boosted: %v", next)
	}
	if math.Abs((next[0]+next[1])-200) > 1e-9 {
		t.Errorf("rebalance changed the total: %v", next)
	}
}

func TestDemandShiftNoHungryNodes(t *testing.T) {
	p := DemandShiftPolicy{}
	assigned := []float64{100, 100}
	meanPower := []float64{50, 50}
	next := make([]float64, len(assigned))
	p.Rebalance(next, assigned, meanPower)
	for i := range next {
		if next[i] != assigned[i] {
			t.Errorf("rebalance with no hungry nodes changed caps: %v", next)
		}
	}
}

func TestNormalizeRespectsFloorAndBudget(t *testing.T) {
	caps := []float64{10, 200, 300}
	normalize(caps, 400, 25)
	sum := 0.0
	for _, c := range caps {
		if c < 25-1e-9 {
			t.Errorf("cap %v below floor", caps)
		}
		sum += c
	}
	if math.Abs(sum-400) > 1e-6 {
		t.Errorf("normalized caps %v sum to %.2f, want 400", caps, sum)
	}
}
