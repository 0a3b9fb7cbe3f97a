package cluster

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"pupil/internal/driver"
)

// A Coordinator steps a live cluster and reassigns caps while it runs.
func TestCoordinatorLiveBudget(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       mixedCluster(t, "RAPL"),
		BudgetWatts: 400,
		Epoch:       2 * time.Second,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sumOf(snapCaps(c)); math.Abs(got-400) > 1e-6 {
		t.Fatalf("initial assignment sums to %g, want 400", got)
	}
	for i := 0; i < 3; i++ {
		if err := c.Step(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if c.Now() != 6*time.Second {
		t.Errorf("Now = %v, want 6s", c.Now())
	}

	// Shrink the budget live: the assignment rescales immediately.
	if err := c.SetBudget(240); err != nil {
		t.Fatal(err)
	}
	if got := sumOf(snapCaps(c)); math.Abs(got-240) > 1e-6 {
		t.Errorf("assignment after SetBudget sums to %g, want 240", got)
	}
	if err := c.Step(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sumOf(snapCaps(c)); math.Abs(got-240) > 1e-6 {
		t.Errorf("assignment after next Step sums to %g, want 240", got)
	}

	// Direct per-node reassignment bypasses the policy.
	if err := c.SetNodeCap(0, 90); err != nil {
		t.Fatal(err)
	}
	sn := c.Snapshot()
	if len(sn.Nodes) != 4 {
		t.Fatalf("Snapshot has %d nodes, want 4", len(sn.Nodes))
	}
	if got := sn.Nodes[0].CapWatts; got != 90 {
		t.Errorf("node 0 cap = %g, want 90", got)
	}
	if sn.TotalPower > 400*1.05 {
		t.Errorf("total power %.1f W ignores budget", sn.TotalPower)
	}
}

func TestCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(Config{Nodes: mixedCluster(t, "RAPL"), BudgetWatts: math.NaN()}); !errors.Is(err, driver.ErrInvalidCap) {
		t.Errorf("NaN budget: err = %v, want ErrInvalidCap", err)
	}
	if _, err := NewCoordinator(Config{Nodes: mixedCluster(t, "RAPL"), BudgetWatts: math.Inf(1)}); !errors.Is(err, driver.ErrInvalidCap) {
		t.Errorf("+Inf budget: err = %v, want ErrInvalidCap", err)
	}
	c, err := NewCoordinator(Config{Nodes: mixedCluster(t, "RAPL"), BudgetWatts: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{-10, 0, math.NaN(), math.Inf(-1)} {
		if err := c.SetBudget(bad); !errors.Is(err, driver.ErrInvalidCap) {
			t.Errorf("SetBudget(%g) = %v, want ErrInvalidCap", bad, err)
		}
		if err := c.SetNodeCap(0, bad); !errors.Is(err, driver.ErrInvalidCap) {
			t.Errorf("SetNodeCap(0, %g) = %v, want ErrInvalidCap", bad, err)
		}
	}
	if err := c.SetBudget(50); err == nil {
		t.Error("SetBudget accepted budget below the cluster floor")
	}
	if err := c.SetNodeCap(9, 100); err == nil {
		t.Error("SetNodeCap accepted out-of-range node index")
	}
	if err := c.SetNodeCap(0, 1); err == nil {
		t.Error("SetNodeCap accepted cap below the floor")
	}
	if err := c.Step(0); err == nil {
		t.Error("Step accepted non-positive duration")
	}
	if got := c.Snapshot().Budget; got != 400 {
		t.Errorf("budget changed to %g by rejected SetBudget", got)
	}
}

// TestSnapshotMeansAfterCancelledStep: the per-node epoch means a step
// takes are what Snapshot reports only while the session has not moved
// since. After a cancelled step leaves sessions mid-epoch, and again after
// the step that resumes them, they equal the means computed from the
// sessions directly.
func TestSnapshotMeansAfterCancelledStep(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       mixedCluster(t, "RAPL"),
		BudgetWatts: 400,
		Epoch:       time.Second,
		Policy:      DemandShiftPolicy{},
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		sn := c.Snapshot()
		for i, s := range c.sessions {
			p, r := s.MeanPower(c.Epoch()), s.MeanRate(c.Epoch())
			if sn.Nodes[i].MeanPower != p || sn.Nodes[i].MeanRate != r {
				t.Errorf("%s: node %d snapshot means (%v, %v), sessions say (%v, %v)",
					when, i, sn.Nodes[i].MeanPower, sn.Nodes[i].MeanRate, p, r)
			}
		}
	}
	if err := c.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	check("after a step")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.StepContext(ctx, time.Second); err == nil {
		t.Fatal("StepContext succeeded under a cancelled context")
	}
	// The mid-epoch residue a cancellation leaves: sessions advanced
	// partway into the epoch.
	c.sessions[0].Advance(500 * time.Millisecond)
	c.sessions[2].Advance(250 * time.Millisecond)
	check("after a cancelled step")

	if err := c.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	check("after the resuming step")
}
