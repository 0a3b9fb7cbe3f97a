package cluster

// Cluster-scoped chaos: the failure surface a fleet coordinator sees.
// Node-internal faults (internal/faults injected through the driver) make
// one machine's sensors lie or its actuators stick; cluster-scoped
// scenarios attack the node's membership in the coordination epoch itself
// — it crashes, hangs, flaps, or its demand report lies. The coordinator
// owns the schedule, evaluates it deterministically at epoch boundaries,
// and feeds the observable consequences (a node that did not step, a
// demand signal that froze or inflated) to the health state machine in
// health.go.

import (
	"fmt"
	"time"

	"pupil/internal/faults"
)

// ChaosEvent records one cluster-scoped fault transition, as observed at
// an epoch boundary.
type ChaosEvent struct {
	T        time.Duration
	Node     int
	Scenario faults.Scenario
	// Active is true at onset and false at clearance.
	Active bool
}

// nodeChaos is one node's scheduled cluster-scoped scenarios plus the
// per-scenario active flags driving the transition log.
type nodeChaos struct {
	scenarios []faults.Scenario
	active    []bool
}

// chaosState tracks every node's cluster-scoped fault schedule and the
// fleet-wide transition log, bounded by boundEvents. The coordinator mutates it only between
// steps (injection) or in the single-threaded post-sweep phase (advance);
// the queries sweep cells run concurrently are pure functions of the
// immutable scenario list and the query time, so no synchronization is
// needed and parallelism cannot affect outcomes.
type chaosState struct {
	nodes  []nodeChaos
	events []ChaosEvent
}

// schedule adds a validated cluster-scoped scenario to node i.
func (cs *chaosState) schedule(i int, sc faults.Scenario) {
	nc := &cs.nodes[i]
	nc.scenarios = append(nc.scenarios, sc)
	nc.active = append(nc.active, false)
}

// flapDead reports whether a flap scenario has its node in the dead phase
// at time t: the alternation period is Magnitude seconds and the node
// starts dead at onset.
func flapDead(sc faults.Scenario, t time.Duration) bool {
	period := time.Duration(sc.Magnitude * float64(time.Second))
	if period <= 0 {
		return true
	}
	return int((t-sc.Onset)/period)%2 == 0
}

// nodeStateAt classifies node i at time t. crashed means the node is down
// and reporting nothing (crash, or the dead phase of a flap); hung means
// the node is wedged but its last demand report keeps being served. Both
// stop the session from advancing. Scenarios are evaluated at epoch
// boundaries: a node is dead for epoch (t-d, t] when a scenario is active
// at the epoch's end t.
func (cs *chaosState) nodeStateAt(i int, t time.Duration) (crashed, hung bool) {
	for _, sc := range cs.nodes[i].scenarios {
		if !sc.ActiveAt(t) {
			continue
		}
		switch sc.Kind {
		case faults.KindCrash:
			crashed = true
		case faults.KindFlap:
			if flapDead(sc, t) {
				crashed = true
			}
		case faults.KindHang:
			hung = true
		}
	}
	return crashed, hung
}

// demandScaleAt is the combined corruption factor on node i's demand
// report at time t (1.0 when no corrupt scenario is active).
func (cs *chaosState) demandScaleAt(i int, t time.Duration) float64 {
	s := 1.0
	for _, sc := range cs.nodes[i].scenarios {
		if sc.Kind == faults.KindCorrupt && sc.ActiveAt(t) {
			s *= sc.Magnitude
		}
	}
	return s
}

// advance logs every scenario onset and clearance crossed by the clock
// reaching t.
func (cs *chaosState) advance(t time.Duration) {
	for i := range cs.nodes {
		nc := &cs.nodes[i]
		for j, sc := range nc.scenarios {
			if act := sc.ActiveAt(t); act != nc.active[j] {
				nc.active[j] = act
				cs.events = append(boundEvents(cs.events), ChaosEvent{T: t, Node: i, Scenario: sc, Active: act})
			}
		}
	}
}

// activeCount reports how many of node i's scenarios are in effect at t.
func (cs *chaosState) activeCount(i int, t time.Duration) int {
	n := 0
	for _, sc := range cs.nodes[i].scenarios {
		if sc.ActiveAt(t) {
			n++
		}
	}
	return n
}

// InjectNodeFault schedules a fault against node i, onset relative to the
// coordinator's current simulated time. Cluster-scoped scenarios
// (crash/hang/flap/corrupt) join the coordinator's chaos schedule and are
// evaluated at epoch boundaries; node-scoped scenarios (sensor, actuator,
// RAPL, controller faults) are forwarded into the member node's own
// injector, so the cluster fault surface is a strict superset of the node
// one.
func (c *Coordinator) InjectNodeFault(i int, sc faults.Scenario) error {
	if i < 0 || i >= len(c.sessions) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	if !sc.ClusterScoped() {
		return c.sessions[i].InjectFault(sc)
	}
	sc.Onset += c.now
	c.chaos.schedule(i, sc)
	return nil
}

// InjectDomainFault schedules the scenario against every node a budget
// domain covers — the rack- or row-correlated failure (a failed PDU, a
// cooling loop) — and reports how many nodes it hit.
func (c *Coordinator) InjectDomainFault(name string, sc faults.Scenario) (int, error) {
	for _, d := range c.domains {
		if d.name != name {
			continue
		}
		for i := d.lo; i < d.hi; i++ {
			if err := c.InjectNodeFault(i, sc); err != nil {
				return i - d.lo, err
			}
		}
		return d.nodes(), nil
	}
	return 0, fmt.Errorf("cluster: no domain %q", name)
}

// NodeFaults returns a copy of node i's scheduled cluster-scoped
// scenarios (onsets in absolute simulated time); nil for an unknown node.
func (c *Coordinator) NodeFaults(i int) faults.Profile {
	if i < 0 || i >= len(c.chaos.nodes) {
		return nil
	}
	return append(faults.Profile(nil), c.chaos.nodes[i].scenarios...)
}

// NodeFaultsActive counts node i's cluster-scoped scenarios in effect at
// the coordinator's current time.
func (c *Coordinator) NodeFaultsActive(i int) int {
	if i < 0 || i >= len(c.chaos.nodes) {
		return 0
	}
	return c.chaos.activeCount(i, c.now)
}

// ChaosEvents returns a copy of the cluster-scoped fault transition log:
// the most recent transitions, at most eventLogCap of them.
func (c *Coordinator) ChaosEvents() []ChaosEvent {
	return append([]ChaosEvent(nil), c.chaos.events...)
}

// NodeSessionFaults returns node i's node-scoped scenarios — the ones
// InjectNodeFault forwarded into the member node's own injector — with
// onsets in the node's absolute simulated time; nil for an unknown node.
func (c *Coordinator) NodeSessionFaults(i int) faults.Profile {
	if i < 0 || i >= len(c.sessions) {
		return nil
	}
	return c.sessions[i].FaultScenarios()
}

// NodeSessionFaultsActive counts node i's node-scoped scenarios in effect
// at the node's current simulated time.
func (c *Coordinator) NodeSessionFaultsActive(i int) int {
	if i < 0 || i >= len(c.sessions) {
		return 0
	}
	return c.sessions[i].FaultsActive()
}

// NodeSessionFaultEvents returns node i's node-scoped fault transition
// log, as observed by the node's own injector clock.
func (c *Coordinator) NodeSessionFaultEvents(i int) []faults.Event {
	if i < 0 || i >= len(c.sessions) {
		return nil
	}
	return c.sessions[i].FaultEvents()
}
