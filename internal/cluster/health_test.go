package cluster

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"pupil/internal/faults"
)

// healthOn is the test HealthConfig: defaults everywhere.
func healthOn() *HealthConfig { return &HealthConfig{} }

// TestHealthDisabledIdentity: enabling health tracking on a fault-free
// cluster must not change a single byte of the outcome — the state machine
// observes, and a node that never misbehaves is never touched.
func TestHealthDisabledIdentity(t *testing.T) {
	run := func(h *HealthConfig) ([]Snapshot, []HealthEvent) {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "RAPL"),
			BudgetWatts: 400,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        9,
			Health:      h,
		})
		if err != nil {
			t.Fatal(err)
		}
		var hist []Snapshot
		for i := 0; i < 5; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
			hist = append(hist, c.Snapshot())
		}
		return hist, c.HealthEvents()
	}
	off, _ := run(nil)
	on, events := run(healthOn())
	if len(events) != 0 {
		t.Fatalf("fault-free run produced health events: %v", events)
	}
	a, err := json.Marshal(off)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(on)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("health tracking changed a fault-free run's Snapshots")
	}
}

// TestHealthStateMachineTransitions walks the state machine white-box:
// classification precedence, streak escalation, quarantine accounting,
// probe dwell, recovery, and the backoff doubling on a failed probe.
func TestHealthStateMachineTransitions(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       lightCluster(t),
		BudgetWatts: 200,
		Epoch:       time.Second,
		Seed:        3,
		Health:      &HealthConfig{StaleEpochs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// epoch simulates one classified epoch for node 0 without stepping
	// sessions: node 1 stays a healthy bystander.
	epoch := func(stepped, panicked bool, demand float64) {
		c.stepped[0], c.panicked[0], c.demand[0] = stepped, panicked, demand
		c.stepped[1], c.panicked[1] = true, false
		c.demand[1] = 40 + float64(len(c.healthEvents))
		c.now += c.cfg.Epoch
		c.updateHealth()
	}
	want := func(s HealthState) {
		t.Helper()
		if got := c.Snapshot().Nodes[0].Health; got != s {
			t.Fatalf("node 0 in state %v, want %v (events: %v)", got, s, c.healthEvents)
		}
	}

	// One bad epoch marks suspect; a clean one clears it.
	epoch(false, false, 0)
	want(Suspect)
	epoch(true, false, 40)
	want(Healthy)
	if c.Snapshot().Nodes[1].Health != Healthy {
		t.Fatal("bystander node left healthy state")
	}

	// SuspectEpochs consecutive bad epochs quarantine and reclaim.
	epoch(false, false, 0)
	epoch(false, false, 0)
	want(Quarantined)
	if w := c.ReclaimedWatts(); math.Abs(w-(c.assigned[0]-c.floor)) > 1e-9 {
		t.Fatalf("reclaimed %.3f W, want assigned-floor = %.3f", w, c.assigned[0]-c.floor)
	}
	if c.QuarantinedCount() != 1 {
		t.Fatalf("QuarantinedCount = %d, want 1", c.QuarantinedCount())
	}

	// Default dwell (ProbeAfterEpochs = 2) then a probe.
	epoch(false, false, 0)
	want(Quarantined)
	epoch(false, false, 0)
	want(Recovering)

	// A failed probe re-quarantines with doubled backoff.
	epoch(false, false, 0)
	want(Quarantined)
	if c.health[0].backoff != 4 {
		t.Fatalf("backoff after failed probe = %d, want 4", c.health[0].backoff)
	}
	for i := 0; i < 4; i++ {
		epoch(false, false, 0)
	}
	want(Recovering)

	// RecoverEpochs clean probes re-admit and zero the reclaim.
	epoch(true, false, 30)
	want(Recovering)
	epoch(true, false, 31)
	want(Healthy)
	if w := c.ReclaimedWatts(); w != 0 {
		t.Fatalf("reclaimed %.3f W after recovery, want 0", w)
	}

	// Signal classification: invalid demand is clamped and flagged...
	epoch(true, false, math.NaN())
	want(Suspect)
	if c.demand[0] != 0 {
		t.Fatalf("NaN demand not clamped: %v", c.demand[0])
	}
	epoch(true, false, 30)
	want(Healthy)
	// ... over-cap demand is flagged ...
	epoch(true, false, c.assigned[0]*2)
	want(Suspect)
	epoch(true, false, 30)
	want(Healthy)
	// ... a panic is flagged ...
	epoch(true, true, 30)
	want(Suspect)
	epoch(true, false, 31)
	want(Healthy)
	// ... and a bit-identical report for StaleEpochs runs is flagged.
	for i := 0; i < 3; i++ {
		epoch(true, false, 55)
		want(Healthy)
	}
	epoch(true, false, 55)
	want(Suspect)

	events := c.HealthEvents()
	var reasons []string
	for _, e := range events {
		reasons = append(reasons, e.Reason)
	}
	joined := strings.Join(reasons, ",")
	for _, r := range []string{"step-timeout", "invalid-demand", "over-cap", "panic", "stale-demand", "probe", "recovered", "cleared"} {
		if !strings.Contains(joined, r) {
			t.Errorf("event log missing reason %q: %v", r, reasons)
		}
	}
	if s := events[0].String(); !strings.Contains(s, "node0") || !strings.Contains(s, "healthy->suspect") {
		t.Errorf("HealthEvent.String() = %q", s)
	}
}

// TestChaosClusterCrashQuarantineReclaims is the tentpole integration path:
// a node crashes, the health layer quarantines it, its budget (minus the
// floor) flows to the survivors with every invariant intact, and when the
// fault clears the probes re-admit it.
func TestChaosClusterCrashQuarantineReclaims(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       mixedCluster(t, "RAPL"),
		BudgetWatts: 400,
		Epoch:       time.Second,
		Policy:      DemandShiftPolicy{},
		Seed:        9,
		Health:      healthOn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindCrash, Target: faults.TargetNode, Duration: 6 * time.Second}); err != nil {
		t.Fatal(err)
	}
	sawQuarantine := false
	for e := 0; e < 16; e++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if c.Snapshot().Nodes[0].Health == Quarantined {
			sawQuarantine = true
			caps, budget := snapCaps(c), c.Snapshot().Budget
			if got := caps[0]; math.Abs(got-c.floor) > 1e-9 {
				t.Fatalf("epoch %d: quarantined node holds %.3f W, want the %.0f W floor", e, got, c.floor)
			}
			if c.ReclaimedWatts() <= 0 {
				t.Fatalf("epoch %d: quarantined node reclaimed nothing", e)
			}
			// The reclaimed watts are in the survivors' caps: everything
			// above the floor went to nodes that can use it.
			rest := sumOf(caps[1:])
			if math.Abs(rest-(budget-c.floor)) > 1e-6 {
				t.Fatalf("epoch %d: survivors hold %.3f W, want budget-floor = %.3f", e, rest, budget-c.floor)
			}
		}
	}
	if !sawQuarantine {
		t.Fatal("crashed node was never quarantined")
	}
	if got := c.Snapshot().Nodes[0].Health; got != Healthy {
		t.Fatalf("node 0 ended in state %v, want healthy after the fault cleared", got)
	}
	if w := c.ReclaimedWatts(); w != 0 {
		t.Fatalf("reclaimed %.3f W after recovery, want 0", w)
	}
	if got := snapCaps(c)[0]; got <= c.floor {
		t.Fatalf("re-admitted node still pinned at %.3f W", got)
	}
	// The crash forfeits simulated time permanently: the node's session
	// clock lags the coordinator by exactly the recorded skew.
	if c.skew[0] == 0 {
		t.Fatal("crashed node recorded no forfeit skew")
	}
	health, chaos := c.HealthEvents(), c.ChaosEvents()
	if len(health) == 0 || len(chaos) != 2 {
		t.Fatalf("coordinator logged %d health and %d chaos events, want >0 and 2 (onset+clearance)",
			len(health), len(chaos))
	}
	if !chaos[0].Active || chaos[1].Active {
		t.Fatalf("chaos event log out of order: %+v", chaos)
	}
}

// TestChaosClusterHangStrandsNaive: a hung node keeps serving its frozen
// demand report, so a naive demand-following coordinator keeps feeding it
// budget; the health layer's step-timeout signal quarantines it and the
// survivors end up with strictly more budget than under the naive
// coordinator.
func TestChaosClusterHangStrandsNaive(t *testing.T) {
	run := func(h *HealthConfig) (survivors float64, c *Coordinator) {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "RAPL"),
			BudgetWatts: 400,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        9,
			Health:      h,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two warm epochs so the hung node freezes a real demand level.
		for i := 0; i < 2; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindHang, Target: faults.TargetNode, Duration: time.Hour}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		return sumOf(snapCaps(c)[1:]), c
	}
	naive, _ := run(nil)
	guarded, c := run(healthOn())
	if got := c.Snapshot().Nodes[0].Health; got != Quarantined {
		t.Fatalf("hung node in state %v, want quarantined", got)
	}
	// The hung node froze a real (pre-hang) demand report, so the naive
	// demand-shift policy keeps granting it a real share; quarantine frees
	// everything above the floor for the survivors.
	if guarded <= naive {
		t.Fatalf("survivors hold %.3f W under quarantine vs %.3f W naive — quarantine must reclaim the stranded share",
			guarded, naive)
	}
	if budget := c.Snapshot().Budget; math.Abs(guarded-(budget-c.floor)) > 1e-6 {
		t.Fatalf("survivors hold %.3f W, want budget-floor = %.3f", guarded, budget-c.floor)
	}
}

// TestChaosClusterCrashRecoversThroughputVsNaive: under an even split a
// crashed node strands its whole share; quarantine hands the stranded
// watts to survivors that convert them into work.
func TestChaosClusterCrashRecoversThroughputVsNaive(t *testing.T) {
	run := func(h *HealthConfig) float64 {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "RAPL"),
			BudgetWatts: 360,
			Epoch:       time.Second,
			Policy:      EvenPolicy{},
			Seed:        9,
			Health:      h,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindCrash, Target: faults.TargetNode, Duration: time.Hour}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
		}
		rate := 0.0
		for _, n := range c.Snapshot().Nodes[1:] {
			rate += n.MeanRate
		}
		return rate
	}
	naive := run(nil)
	guarded := run(healthOn())
	if guarded <= naive {
		t.Fatalf("survivor throughput %.4f under quarantine vs %.4f naive — reclaimed budget must buy work",
			guarded, naive)
	}
}

// TestChaosClusterFlapBackoff: a flapping node fails probe after probe; the
// backoff must double (capped) instead of thrashing the budget split.
func TestChaosClusterFlapBackoff(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       lightCluster(t),
		BudgetWatts: 200,
		Epoch:       time.Second,
		Seed:        3,
		Health:      &HealthConfig{SuspectEpochs: 1, MaxBackoffEpochs: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dead 1 s / alive 1 s alternation, forever: alternate epoch
	// boundaries land in the dead phase and forfeit the epoch, so with a
	// 1-epoch suspect threshold every dead boundary (re-)quarantines and
	// no two consecutive clean probes ever happen.
	if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindFlap, Target: faults.TargetNode, Duration: time.Hour, Magnitude: 1}); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 40; e++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if got := c.health[0].backoff; got != 8 {
		t.Fatalf("flapping node's probe backoff = %d epochs, want the 8-epoch cap", got)
	}
	// Quarantine re-entries must outnumber recoveries: the node never
	// strings together enough clean probes.
	reQ, rec := 0, 0
	for _, e := range c.HealthEvents() {
		switch {
		case e.To == Quarantined && e.From == Recovering:
			reQ++
		case e.Reason == "recovered":
			rec++
		}
	}
	if reQ < 2 {
		t.Fatalf("flapping node re-quarantined %d times, want >= 2 (events: %v)", reQ, c.HealthEvents())
	}
	if rec > reQ {
		t.Fatalf("flapping node recovered %d times vs %d re-quarantines — backoff should keep it benched", rec, reQ)
	}
}

// TestChaosClusterDemandCorrupt: a corrupted demand report (x8) trips the
// over-cap signal and benches the node even though it steps normally.
func TestChaosClusterDemandCorrupt(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       lightCluster(t),
		BudgetWatts: 200,
		Epoch:       time.Second,
		Seed:        3,
		Health:      healthOn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindCorrupt, Target: faults.TargetDemand, Duration: time.Hour, Magnitude: 8}); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 4; e++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Snapshot().Nodes[0].Health; got != Quarantined && got != Recovering {
		t.Fatalf("corrupt-demand node in state %v, want benched", got)
	}
	// The node itself kept stepping: corruption hits the report, not the
	// machine.
	if c.skew[0] != 0 {
		t.Fatalf("corrupt-demand node forfeited %v of simulated time; only the report should lie", c.skew[0])
	}
	var reasons []string
	for _, e := range c.HealthEvents() {
		reasons = append(reasons, e.Reason)
	}
	if !strings.Contains(strings.Join(reasons, ","), "over-cap") {
		t.Fatalf("no over-cap signal in %v", reasons)
	}
}

// TestChaosClusterParallelDeterminism: chaos evaluation and panic recovery
// are position-indexed like everything else — a faulted hierarchical run
// must be byte-identical at parallelism 1 vs 8: every epoch's Snapshot and
// both event logs.
func TestChaosClusterParallelDeterminism(t *testing.T) {
	type outcome struct {
		Snapshots    []Snapshot
		HealthEvents []HealthEvent
		ChaosEvents  []ChaosEvent
	}
	run := func(parallel int) outcome {
		c, err := NewCoordinator(Config{
			Nodes:       gridCluster(t, 8),
			BudgetWatts: 800,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        17,
			Parallel:    parallel,
			Topology:    Topology{NodesPerRack: 2, RacksPerRow: 2, RebalanceEvery: 2},
			Health:      healthOn(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InjectNodeFault(1, faults.Scenario{Kind: faults.KindCrash, Target: faults.TargetNode, Onset: time.Second, Duration: 3 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if err := c.InjectNodeFault(5, faults.Scenario{Kind: faults.KindFlap, Target: faults.TargetNode, Duration: time.Hour, Magnitude: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InjectDomainFault("rack1", faults.Scenario{Kind: faults.KindCorrupt, Target: faults.TargetDemand, Onset: 2 * time.Second, Duration: 2 * time.Second, Magnitude: 5}); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for i := 0; i < 8; i++ {
			if err := c.Step(time.Second); err != nil {
				t.Fatal(err)
			}
			o.Snapshots = append(o.Snapshots, c.Snapshot())
		}
		o.HealthEvents, o.ChaosEvents = c.HealthEvents(), c.ChaosEvents()
		return o
	}
	seq := run(1)
	par := run(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("faulted parallel Step diverged from sequential Step")
	}
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if string(a) != string(b) {
		t.Fatal("faulted parallel run is not byte-identical to sequential run")
	}
	if len(seq.HealthEvents) == 0 || len(seq.ChaosEvents) == 0 {
		t.Fatal("faulted run produced no health/chaos events")
	}
}

// TestChaosClusterFaultRouting covers the fault-injection plumbing: rack
// fan-out, node-scoped forwarding, and validation at every boundary.
func TestChaosClusterFaultRouting(t *testing.T) {
	c, err := NewCoordinator(Config{
		Nodes:       gridCluster(t, 4),
		BudgetWatts: 400,
		Epoch:       time.Second,
		Seed:        5,
		Topology:    Topology{NodesPerRack: 2},
		Health:      healthOn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	crash := faults.Scenario{Kind: faults.KindCrash, Target: faults.TargetNode, Duration: time.Second}
	n, err := c.InjectDomainFault("rack0", crash)
	if err != nil || n != 2 {
		t.Fatalf("InjectDomainFault(rack0) = (%d, %v), want (2, nil)", n, err)
	}
	for i := 0; i < 2; i++ {
		if got := len(c.NodeFaults(i)); got != 1 {
			t.Fatalf("node %d has %d scheduled chaos scenarios, want 1", i, got)
		}
		if got := c.NodeFaultsActive(i); got != 1 {
			t.Fatalf("node %d reports %d active scenarios at t=0, want 1 (onset inclusive)", i, got)
		}
	}
	if got := len(c.NodeFaults(2)); got != 0 {
		t.Fatalf("rack1 node has %d chaos scenarios, want 0", got)
	}
	if _, err := c.InjectDomainFault("nowhere", crash); err == nil {
		t.Fatal("InjectDomainFault accepted an unknown domain")
	}
	if err := c.InjectNodeFault(99, crash); err == nil {
		t.Fatal("InjectNodeFault accepted an out-of-range node")
	}
	if err := c.InjectNodeFault(0, faults.Scenario{Kind: faults.KindFlap, Target: faults.TargetNode, Duration: time.Second}); err == nil {
		t.Fatal("InjectNodeFault accepted a flap scenario with no period")
	}
	// Node-scoped scenarios pass through to the member session's injector,
	// not the chaos schedule.
	stall := faults.Scenario{Kind: faults.KindStall, Target: faults.TargetController, Duration: time.Second}
	if err := c.InjectNodeFault(3, stall); err != nil {
		t.Fatal(err)
	}
	if got := len(c.NodeFaults(3)); got != 0 {
		t.Fatalf("node-scoped scenario landed in the chaos schedule (%d entries)", got)
	}
	if got := len(c.sessions[3].FaultScenarios()); got != 1 {
		t.Fatalf("node-scoped scenario not forwarded to the session injector (%d scheduled)", got)
	}
}

// TestStepResumeAfterCancel pins the resume-after-cancel contract: a step
// that aborts mid-epoch leaves some sessions partially advanced, and the
// next successful Step must advance each by exactly its remainder and
// restore the lockstep identity and budget accounting.
func TestStepResumeAfterCancel(t *testing.T) {
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
	if err := c.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	caps := snapCaps(c)

	// An already-cancelled context: the sweep aborts, and neither the
	// coordinator's clock nor the assignment may move.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.StepContext(ctx, time.Second); err == nil {
		t.Fatal("StepContext succeeded under a cancelled context")
	}
	if c.Now() != time.Second {
		t.Fatalf("cancelled step moved the clock to %v", c.Now())
	}
	if got := snapCaps(c); !reflect.DeepEqual(got, caps) {
		t.Fatalf("cancelled step moved the assignment to %v from %v", got, caps)
	}

	// Simulate the mid-epoch residue a cancellation leaves: one session
	// advanced partway into the epoch, the others untouched.
	c.sessions[0].Advance(500 * time.Millisecond)
	c.sessions[2].Advance(250 * time.Millisecond)

	// The next Step must advance every session by exactly its remainder.
	if err := c.Step(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i, s := range c.sessions {
		if got := s.Now() + c.skew[i]; got != c.Now() {
			t.Fatalf("node %d at %v after resume, coordinator at %v", i, got, c.Now())
		}
	}
	if got, budget := sumOf(snapCaps(c)), c.Snapshot().Budget; math.Abs(got-budget) > 1e-9 {
		t.Fatalf("post-resume assignment sums to %.9f, want the %.0f W budget", got, budget)
	}

	// A genuinely mid-step cancellation (deadline inside the epoch): either
	// it completes or it aborts, and in both cases the next step restores
	// full coherence.
	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	stepErr := c.StepContext(dctx, 5*time.Second)
	dcancel()
	if stepErr != nil {
		if err := c.Step(5 * time.Second); err != nil {
			t.Fatalf("resume step after deadline abort: %v", err)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Fractional-tick steps are rejected before touching any session.
	if err := c.Step(time.Second + time.Nanosecond); err == nil {
		t.Fatal("Step accepted a fractional-tick duration")
	}
}

// TestChaosClusterPropertyInvariants drives a 16-node, 3-level tree
// through random chaos injection, budget changes, and steps, asserting
// budget conservation and the floor invariant at every level after every
// epoch — the quarantine/rejoin property test.
func TestChaosClusterPropertyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized multi-epoch chaos sequences")
	}
	rng := rand.New(rand.NewSource(0xbadfeed))
	c, err := NewCoordinator(Config{
		Nodes:       gridCluster(t, 16),
		BudgetWatts: 1600,
		Epoch:       time.Second,
		Policy:      DemandShiftPolicy{},
		Seed:        23,
		Parallel:    8,
		Topology:    Topology{NodesPerRack: 4, RacksPerRow: 2, RebalanceEvery: 2},
		Health:      &HealthConfig{ProbeAfterEpochs: 1, RecoverEpochs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []faults.Kind{faults.KindCrash, faults.KindHang, faults.KindFlap}
	for op := 0; op < 40; op++ {
		switch k := rng.Intn(10); {
		case k < 5:
			if err := c.Step(time.Duration(1+rng.Intn(4)) * 250 * time.Millisecond); err != nil {
				t.Fatalf("op %d: Step: %v", op, err)
			}
		case k < 7:
			kind := kinds[rng.Intn(len(kinds))]
			sc := faults.Scenario{
				Kind:     kind,
				Target:   faults.TargetNode,
				Onset:    time.Duration(rng.Intn(4)) * time.Second,
				Duration: time.Duration(1+rng.Intn(8)) * time.Second,
			}
			if kind == faults.KindFlap {
				sc.Magnitude = float64(1 + rng.Intn(3))
			}
			if err := c.InjectNodeFault(rng.Intn(16), sc); err != nil {
				t.Fatalf("op %d: inject: %v", op, err)
			}
		case k < 8:
			rack := []string{"rack0", "rack1", "rack2", "rack3"}[rng.Intn(4)]
			sc := faults.Scenario{
				Kind:     faults.KindCrash,
				Target:   faults.TargetNode,
				Onset:    time.Duration(rng.Intn(2)) * time.Second,
				Duration: time.Duration(1+rng.Intn(4)) * time.Second,
			}
			if _, err := c.InjectDomainFault(rack, sc); err != nil {
				t.Fatalf("op %d: rack inject: %v", op, err)
			}
		default:
			budget := 25*16*2 + rng.Float64()*1000
			if err := c.SetBudget(budget); err != nil {
				t.Fatalf("op %d: SetBudget(%.1f): %v", op, budget, err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		caps := snapCaps(c)
		for i := 0; i < 16; i++ {
			if c.benched(i) {
				if got := caps[i]; got < c.floor-1e-9 {
					t.Fatalf("op %d: benched node %d below the floor: %.6f", op, i, got)
				}
			}
		}
	}
	// Let every outstanding fault clear, then confirm the fleet heals.
	for i := 0; i < 40 && c.QuarantinedCount() > 0; i++ {
		if err := c.Step(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if q := c.QuarantinedCount(); q != 0 {
		t.Fatalf("%d nodes still benched after every fault cleared", q)
	}
	if w := c.ReclaimedWatts(); w != 0 {
		t.Fatalf("%.3f W still reclaimed after full recovery", w)
	}
}
