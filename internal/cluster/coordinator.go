package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"pupil/internal/driver"
	"pupil/internal/sim"
	"pupil/internal/sweep"
)

// Coordinator is a live cluster: the sessions, the current assignment, and
// the budget, advanced one epoch at a time. Where Run executes a fixed
// scenario to completion, a Coordinator lets a serving layer step the
// cluster indefinitely and reassign caps — the global budget or an
// individual node's share — while it runs. It keeps no per-epoch record:
// Snapshot reads the current state, and a caller that wants a history
// takes one after each Step.
//
// With a hierarchical Topology the coordinator maintains a tree of budget
// domains: the global budget is delegated datacenter → row → rack, each
// level re-split by the same policy over its children's aggregated demand,
// and each rack splits its delegated budget across its member nodes every
// epoch. A flat coordinator is the degenerate single-domain tree and
// behaves exactly as before.
type Coordinator struct {
	cfg      Config
	sessions []*driver.Session
	assigned []float64
	budget   float64
	floor    float64
	now      time.Duration
	// retained is the trailing window every session keeps: the longest
	// span the coordinator reads back, which is the configured epoch or the
	// longest step taken, whichever is greater.
	retained time.Duration

	// Budget-domain tree (single root domain when flat).
	root        *domain
	domains     []*domain
	hier        bool
	parentEvery int
	epochs      uint64

	// Step scratch, allocated once and reused every epoch: the persistent
	// sweep cells advance each session and deposit its demand into
	// demand[i] (position-indexed, so no locking and no effect from
	// parallelism); next is the assignment under construction. stepD is
	// written before the sweep dispatches and only read by cells it
	// started, so it needs no synchronization.
	cells  []sweep.Cell[struct{}]
	demand []float64
	next   []float64
	stepD  time.Duration

	// skew is how far each node's session clock permanently lags the
	// coordinator clock: every epoch a node forfeits (crashed, hung,
	// flap-dead, panicked) adds to its skew — a dead node's lost time is
	// never caught up on rejoin. After every successful step the lockstep
	// invariant holds exactly: sessions[i].Now() + skew[i] == now. A
	// cancelled step leaves skew untouched, so the next step advances
	// each session by precisely the remainder it still owes.
	skew []time.Duration
	// stepped and panicked are the per-epoch observables the health layer
	// classifies: whether node i's session advanced this epoch, and
	// whether a session panic was recovered. Position-indexed writes from
	// the sweep cells, read post-sweep.
	stepped  []bool
	panicked []bool
	// means holds each node's trailing-epoch means and the session time
	// they were taken at: stepNode fills them on the worker pool after its
	// advance, and the demand report and SnapshotInto read them while the
	// session has not moved since.
	means []nodeMeans

	// Cluster-scoped fault schedule and the health layer (hcfg nil when
	// health tracking is disabled).
	chaos        chaosState
	hcfg         *HealthConfig
	health       []nodeHealth
	healthEvents []HealthEvent

	// Quarantine-aware leaf rebalance scratch: the healthy subset's
	// indices and policy slices, reused every epoch.
	subIdx                          []int
	subNext, subAssigned, subDemand []float64
}

// NewCoordinator validates the configuration and builds the cluster's
// sessions without advancing time. Duration is ignored; callers step
// explicitly.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	n := len(cfg.Nodes)
	if n == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if err := driver.ValidateCap(cfg.BudgetWatts); err != nil {
		return nil, fmt.Errorf("cluster: budget: %w", err)
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 5 * time.Second
	}
	if cfg.Policy == nil {
		cfg.Policy = EvenPolicy{}
	}
	floor := cfg.FloorWatts
	if floor <= 0 {
		floor = 25
	}
	if cfg.BudgetWatts < floor*float64(n) {
		return nil, fmt.Errorf("cluster: budget %.0f W cannot cover %d nodes at the %.0f W floor",
			cfg.BudgetWatts, n, floor)
	}
	root, domains, err := buildTree(n, cfg.Topology)
	if err != nil {
		return nil, err
	}

	c := &Coordinator{
		cfg:         cfg,
		sessions:    make([]*driver.Session, n),
		assigned:    make([]float64, n),
		budget:      cfg.BudgetWatts,
		floor:       floor,
		root:        root,
		domains:     domains,
		hier:        cfg.Topology.Hierarchical(),
		parentEvery: cfg.Topology.RebalanceEvery,
		demand:      make([]float64, n),
		next:        make([]float64, n),
		skew:        make([]time.Duration, n),
		stepped:     make([]bool, n),
		panicked:    make([]bool, n),
		means:       make([]nodeMeans, n),
		chaos:       chaosState{nodes: make([]nodeChaos, n)},
	}
	if cfg.Health != nil {
		hc := cfg.Health.withDefaults()
		c.hcfg = &hc
		c.health = make([]nodeHealth, n)
	}
	if c.parentEvery <= 0 {
		c.parentEvery = 1
	}
	for i, spec := range cfg.Nodes {
		if spec.Platform == nil || spec.NewController == nil {
			return nil, fmt.Errorf("cluster: node %d (%s) missing platform or controller", i, spec.Name)
		}
		c.assigned[i] = cfg.BudgetWatts / float64(n)
		s, err := driver.NewSession(driver.Scenario{
			Platform:   spec.Platform,
			Specs:      spec.Specs,
			CapWatts:   c.assigned[i],
			Controller: spec.NewController(spec.Platform),
			Seed:       cfg.Seed ^ (uint64(i) * 0x9e3779b97f4a7c15),
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: node %s: %w", spec.Name, err)
		}
		// The coordinator reads each session only through trailing means
		// over one step or one epoch, so sessions keep only that window.
		s.Retain(cfg.Epoch)
		c.sessions[i] = s
	}
	c.retained = cfg.Epoch
	// Seed the domain budgets from the even initial split — exact
	// per-node-share multiples, so children sum to their parents — and the
	// per-child fairness floors.
	per := cfg.BudgetWatts / float64(n)
	for _, d := range c.domains {
		d.budget = per * float64(d.nodes())
	}
	c.root.budget = cfg.BudgetWatts
	seedFloors(c.domains, floor)

	// Persistent sweep cells: one per session for the whole coordinator
	// lifetime. Each advances its session to the pending epoch target and
	// writes the observed demand into its slot.
	c.cells = make([]sweep.Cell[struct{}], n)
	for i := range c.cells {
		i, s := i, c.sessions[i]
		c.cells[i] = sweep.Cell[struct{}]{
			Label: cfg.Nodes[i].Name,
			Run: func(ctx context.Context) (struct{}, error) {
				return struct{}{}, c.stepNode(ctx, i, s)
			},
		}
	}
	return c, nil
}

// stepNode is one sweep cell's body: advance node i's session to the
// coordinator's pending epoch target and deposit its demand report,
// routing cluster-scoped chaos and (when health tracking is on)
// recovering session panics so one broken node cannot take the cluster
// down. All writes are position-indexed; nothing here is affected by the
// pool's parallelism.
func (c *Coordinator) stepNode(ctx context.Context, i int, s *driver.Session) (err error) {
	target := c.now + c.stepD
	c.stepped[i] = false
	c.panicked[i] = false
	crashed, hung := c.chaos.nodeStateAt(i, target)
	if crashed || hung {
		// The node is down for this epoch: it forfeits the time (no
		// catch-up on rejoin — skew records the forfeit so lockstep
		// accounting stays exact). A crashed node reports no demand; a
		// hung one keeps serving its last report, which is exactly how it
		// strands budget under an adaptive policy.
		c.skew[i] = target - s.Now()
		if crashed {
			c.demand[i] = 0
		}
		return nil
	}
	if c.hcfg != nil {
		defer func() {
			if r := recover(); r != nil {
				// An escaped session panic is a node crash, not a cluster
				// crash: forfeit the epoch, report nothing, and let the
				// health layer quarantine the node.
				c.panicked[i] = true
				c.skew[i] = target - s.Now()
				c.demand[i] = 0
				err = nil
			}
		}()
	}
	delta := target - c.skew[i] - s.Now()
	if delta > 0 {
		if err := s.AdvanceContext(ctx, delta); err != nil {
			return err
		}
	} else {
		// The session is already at (or past) the target — a previous
		// cancelled step advanced it further than this step reaches.
		// Nothing to simulate; re-anchor the skew so lockstep holds.
		c.skew[i] = target - s.Now()
		delta = c.stepD
	}
	c.stepped[i] = true
	power, rate := s.MeanPower(c.cfg.Epoch), s.MeanRate(c.cfg.Epoch)
	c.means[i] = nodeMeans{at: s.Now(), power: power, rate: rate, set: true}
	d := power
	if delta != c.cfg.Epoch {
		d = s.MeanPower(delta)
	}
	if scale := c.chaos.demandScaleAt(i, target); scale != 1 {
		d *= scale
	}
	c.demand[i] = d
	return nil
}

// nodeMeans is one node's mean power and rate over the trailing epoch,
// taken at session time at.
type nodeMeans struct {
	at          time.Duration
	power, rate float64
	set         bool
}

// epochMeans returns node i's mean power and rate over the trailing epoch:
// the means stepNode took, unless the session has moved since (a
// cancelled step's residue), in which case they are computed afresh.
func (c *Coordinator) epochMeans(i int) (power, rate float64) {
	s := c.sessions[i]
	if m := c.means[i]; m.set && m.at == s.Now() {
		return m.power, m.rate
	}
	return s.MeanPower(c.cfg.Epoch), s.MeanRate(c.cfg.Epoch)
}

// Now returns the cluster's simulated time.
func (c *Coordinator) Now() time.Duration { return c.now }

// SetBudget changes the global power budget live. The new budget is
// enforced immediately: every tree level re-splits it top-down over the
// children's current shares (respecting the level's floors), and the
// resulting assignment is reprogrammed into every node.
func (c *Coordinator) SetBudget(watts float64) error {
	if err := driver.ValidateCap(watts); err != nil {
		return fmt.Errorf("cluster: budget: %w", err)
	}
	if watts < c.floor*float64(len(c.sessions)) {
		return fmt.Errorf("cluster: budget %.0f W cannot cover %d nodes at the %.0f W floor: %w",
			watts, len(c.sessions), c.floor, driver.ErrInvalidCap)
	}
	c.budget = watts
	c.root.budget = watts
	// Top-down: each interior domain rescales its children's current
	// budgets to its own new budget, floors respected; the leaves then
	// rescale their member nodes the same way. A flat cluster's one
	// domain is a root leaf over every node.
	for _, d := range c.domains {
		if d.leaf() {
			continue
		}
		for j, ch := range d.children {
			d.childBudget[j] = ch.budget
		}
		normalizeFloors(d.childBudget, d.budget, d.childFloor)
		for j, ch := range d.children {
			ch.budget = d.childBudget[j]
		}
	}
	for _, d := range c.domains {
		if !d.leaf() {
			continue
		}
		copy(c.next[d.lo:d.hi], c.assigned[d.lo:d.hi])
		normalize(c.next[d.lo:d.hi], d.budget, c.floor)
	}
	return c.apply(c.next)
}

// SetNodeCap reassigns one node's cap directly, bypassing the policy; the
// difference is taken from (or returned to) the node's siblings on the
// next Step's normalization of its leaf domain. The next Snapshot already
// reports the new cap.
func (c *Coordinator) SetNodeCap(i int, watts float64) error {
	if i < 0 || i >= len(c.sessions) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if err := driver.ValidateCap(watts); err != nil {
		return err
	}
	if watts < c.floor {
		return fmt.Errorf("cluster: cap %.0f W below the %.0f W floor: %w",
			watts, c.floor, driver.ErrInvalidCap)
	}
	if err := c.sessions[i].SetCap(watts); err != nil {
		return err
	}
	c.assigned[i] = watts
	return nil
}

// Step advances every session by d of simulated time, then observes demand
// and rebalances the assignment through the policy.
func (c *Coordinator) Step(d time.Duration) error {
	return c.StepContext(context.Background(), d)
}

// StepContext advances every session by d of simulated time on a bounded
// worker pool (Config.Parallel workers), then observes demand and
// rebalances the assignment through the policy — at every tree level for a
// hierarchical cluster. Node sessions are independent and per-node demand
// is collected into its position, so the outcome is identical at any
// parallelism; cancellation reaches every in-flight session between kernel
// ticks.
//
// Demand is measured over the actual elapsed step — not the configured
// epoch — so a partial step (Run's final remainder, a serving layer
// ticking faster than the epoch) rebalances on exactly what it simulated
// rather than mixing in stale pre-step history.
func (c *Coordinator) StepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("cluster: step %v must be positive", d)
	}
	if d%sim.Tick != 0 {
		// Sessions advance in whole kernel ticks; a fractional-tick step
		// would silently desynchronize their clocks from the
		// coordinator's and break the lockstep invariant.
		return fmt.Errorf("cluster: step %v must be a multiple of the %v kernel tick", d, sim.Tick)
	}
	if d > c.retained {
		// Demand is read over the whole step: raise every session's
		// retention before the step writes what it will read.
		for _, s := range c.sessions {
			s.Retain(d)
		}
		c.retained = d
	}
	c.stepD = d
	if _, err := sweep.Run(ctx, c.cells, sweep.Options{Parallel: c.cfg.Parallel}); err != nil {
		// A cancelled or failed step leaves some sessions mid-epoch, but
		// the coordinator stays coherent: its clock has not moved and the
		// per-node skews are untouched, so the next successful Step
		// advances each session by exactly the remainder it still owes
		// (stepNode's target arithmetic) and re-establishes lockstep —
		// pinned by TestStepResumeAfterCancel.
		return fmt.Errorf("cluster: step: %w", err)
	}
	c.now += d
	c.epochs++
	if err := c.checkLockstep(); err != nil {
		return err
	}
	c.chaos.advance(c.now)
	if c.hcfg != nil {
		c.updateHealth()
	}
	c.rebalance()
	return c.apply(c.next)
}

// checkLockstep is the explicit post-step invariant: every session's
// clock plus its recorded forfeit skew equals the coordinator's clock,
// exactly (integer nanoseconds, no tolerance). A violation means a node
// advanced out of lockstep — the mid-epoch incoherence a cancelled step
// could previously leave behind silently.
func (c *Coordinator) checkLockstep() error {
	for i, s := range c.sessions {
		if s.Now()+c.skew[i] != c.now {
			return fmt.Errorf("cluster: node %d out of lockstep: session at %v with %v skew vs coordinator at %v",
				i, s.Now(), c.skew[i], c.now)
		}
	}
	return nil
}

// rebalance recomputes the next assignment in c.next from the demand just
// collected: aggregate demand bottom-up, re-split the interior budgets
// top-down on the parent cadence, then split every leaf's budget across
// its member nodes — the fast inner loop, every epoch.
func (c *Coordinator) rebalance() {
	if c.hier {
		// c.domains is in breadth-first order, so a reverse walk visits
		// children before parents (bottom-up) and a forward walk parents
		// before children (top-down). A benched node's contribution to
		// the aggregate is clamped to the floor it retains — its frozen
		// or empty demand report must not steer the parent split.
		for i := len(c.domains) - 1; i >= 0; i-- {
			d := c.domains[i]
			sum := 0.0
			if d.leaf() {
				for j := d.lo; j < d.hi; j++ {
					if c.benched(j) {
						sum += c.floor
					} else {
						sum += c.demand[j]
					}
				}
			} else {
				for _, ch := range d.children {
					sum += ch.demandSum
				}
			}
			d.demandSum = sum
		}
		if c.epochs%uint64(c.parentEvery) == 0 {
			for _, d := range c.domains {
				if d.leaf() {
					continue
				}
				for j, ch := range d.children {
					d.childBudget[j] = ch.budget
					d.childDemand[j] = ch.demandSum
				}
				c.cfg.Policy.Rebalance(d.childNext, d.childBudget, d.childDemand)
				normalizeFloors(d.childNext, d.budget, d.childFloor)
				for j, ch := range d.children {
					ch.budget = d.childNext[j]
				}
			}
		}
	}
	for _, d := range c.domains {
		if !d.leaf() {
			continue
		}
		c.rebalanceLeaf(d)
	}
}

// rebalanceLeaf splits one leaf domain's budget across its member nodes.
// With health tracking on, benched (quarantined or probing) members are
// pinned at the floor and the remaining budget is re-split across the
// healthy subset through the same policy + normalization — so the leaf's
// sum and floor invariants hold exactly as on the healthy path, and the
// reclaimed watts flow to members that convert them into work.
func (c *Coordinator) rebalanceLeaf(d *domain) {
	q := 0
	if c.hcfg != nil {
		for j := d.lo; j < d.hi; j++ {
			if c.benched(j) {
				q++
			}
		}
	}
	if q == 0 {
		c.cfg.Policy.Rebalance(c.next[d.lo:d.hi], c.assigned[d.lo:d.hi], c.demand[d.lo:d.hi])
		normalize(c.next[d.lo:d.hi], d.budget, c.floor)
		return
	}
	if q == d.nodes() {
		// Every member is benched. Budget conservation outranks the
		// floor pin: the leaf's delegated budget (>= floor x members by
		// the parent's normalization) is spread evenly so no watt goes
		// unaccounted; the parent drains the leaf toward its floor on
		// its own cadence via the clamped demand aggregate.
		for j := d.lo; j < d.hi; j++ {
			c.next[j] = c.floor
		}
		normalize(c.next[d.lo:d.hi], d.budget, c.floor)
		return
	}
	c.subIdx = c.subIdx[:0]
	c.subNext = c.subNext[:0]
	c.subAssigned = c.subAssigned[:0]
	c.subDemand = c.subDemand[:0]
	for j := d.lo; j < d.hi; j++ {
		if c.benched(j) {
			c.next[j] = c.floor
			continue
		}
		c.subIdx = append(c.subIdx, j)
		c.subNext = append(c.subNext, 0)
		c.subAssigned = append(c.subAssigned, c.assigned[j])
		c.subDemand = append(c.subDemand, c.demand[j])
	}
	c.cfg.Policy.Rebalance(c.subNext, c.subAssigned, c.subDemand)
	normalize(c.subNext, d.budget-c.floor*float64(q), c.floor)
	for k, j := range c.subIdx {
		c.next[j] = c.subNext[k]
	}
}

// apply programs an assignment into the sessions.
func (c *Coordinator) apply(next []float64) error {
	for i, s := range c.sessions {
		if next[i] != c.assigned[i] {
			if err := s.SetCap(next[i]); err != nil {
				return err
			}
		}
		c.assigned[i] = next[i]
	}
	return nil
}

// NodeSnapshot is one node's slice of a cluster Snapshot.
type NodeSnapshot struct {
	Name string
	// CapWatts is the node's current assigned cap.
	CapWatts float64
	// MeanPower and MeanRate average the node's true power draw and work
	// rate over the trailing epoch.
	MeanPower float64
	MeanRate  float64
	// Health is the node's health state; always Healthy when the
	// coordinator's health tracking is disabled.
	Health HealthState
}

// Snapshot is an instantaneous, copyable view of the cluster — the one way
// to read a coordinator between Steps.
type Snapshot struct {
	Now        time.Duration
	Policy     string
	Budget     float64
	Nodes      []NodeSnapshot
	TotalPower float64
	TotalRate  float64
	// Domains carries the budget-domain tree in breadth-first order (root
	// first); nil for a flat cluster.
	Domains []DomainSnapshot
	// Quarantined counts benched nodes (quarantined or probing) and
	// ReclaimedWatts sums the budget reclaimed from them; both zero when
	// health tracking is disabled.
	Quarantined    int
	ReclaimedWatts float64
}

// Snapshot captures the cluster's current state; means window over the
// trailing epoch.
func (c *Coordinator) Snapshot() Snapshot {
	var sn Snapshot
	c.SnapshotInto(&sn)
	return sn
}

// SnapshotInto fills sn in place, reusing its Nodes and Domains backing
// arrays when they are large enough — the allocation-free variant for
// callers snapshotting every epoch (the serving layer's epoch loop).
func (c *Coordinator) SnapshotInto(sn *Snapshot) {
	sn.Now = c.now
	sn.Policy = c.cfg.Policy.Name()
	sn.Budget = c.budget
	sn.TotalPower, sn.TotalRate = 0, 0
	sn.Quarantined, sn.ReclaimedWatts = 0, 0
	n := len(c.sessions)
	if cap(sn.Nodes) < n {
		sn.Nodes = make([]NodeSnapshot, n)
	}
	sn.Nodes = sn.Nodes[:n]
	for i := range c.sessions {
		ns := NodeSnapshot{Name: c.cfg.Nodes[i].Name, CapWatts: c.assigned[i]}
		ns.MeanPower, ns.MeanRate = c.epochMeans(i)
		if c.hcfg != nil {
			ns.Health = c.health[i].state
			if c.benched(i) {
				sn.Quarantined++
				sn.ReclaimedWatts += c.health[i].reclaimed
			}
		}
		sn.Nodes[i] = ns
		sn.TotalPower += ns.MeanPower
		sn.TotalRate += ns.MeanRate
	}
	if c.hier {
		if cap(sn.Domains) < len(c.domains) {
			sn.Domains = make([]DomainSnapshot, len(c.domains))
		}
		sn.Domains = sn.Domains[:len(c.domains)]
		for i, d := range c.domains {
			sn.Domains[i] = c.domainSnapshot(d, sn.Nodes)
		}
	} else {
		sn.Domains = nil
	}
}

// domainSnapshot assembles one domain's view from the per-node snapshots.
func (c *Coordinator) domainSnapshot(d *domain, nodes []NodeSnapshot) DomainSnapshot {
	ds := DomainSnapshot{
		Name:        d.name,
		Level:       d.level,
		BudgetWatts: d.budget,
		Nodes:       d.nodes(),
	}
	if d.parent != nil {
		ds.Parent = d.parent.name
	}
	fair := d.budget / float64(d.nodes())
	minShare := math.Inf(1)
	for j := d.lo; j < d.hi; j++ {
		ds.MeanPowerWatts += nodes[j].MeanPower
		if r := nodes[j].CapWatts / fair; r < minShare {
			minShare = r
		}
	}
	ds.FairShareMin = minShare
	return ds
}

// NodeCount reports the number of nodes in the cluster.
func (c *Coordinator) NodeCount() int { return len(c.sessions) }

// Epoch returns the coordinator's configured epoch.
func (c *Coordinator) Epoch() time.Duration { return c.cfg.Epoch }

// DomainCount reports the number of budget domains (1 for a flat cluster).
func (c *Coordinator) DomainCount() int { return len(c.domains) }

// NodeDomains returns each node's leaf (rack) domain name, index-aligned
// with the node specs; nil for a flat cluster.
func (c *Coordinator) NodeDomains() []string {
	if !c.hier {
		return nil
	}
	out := make([]string, len(c.sessions))
	for _, d := range c.domains {
		if !d.leaf() {
			continue
		}
		for i := d.lo; i < d.hi; i++ {
			out[i] = d.name
		}
	}
	return out
}

// CheckInvariants verifies the coordinator's structural invariants — the
// lockstep clock identity, budget conservation at every tree level, and
// the per-node floor. Valid immediately after any
// successful Step; experiment cells and the property tests call it after
// every epoch so a violation names its first occurrence.
func (c *Coordinator) CheckInvariants() error {
	if err := c.checkLockstep(); err != nil {
		return err
	}
	const eps = 1e-6
	if c.root.budget != c.budget {
		return fmt.Errorf("cluster: root domain budget %.9g != global budget %.9g", c.root.budget, c.budget)
	}
	for _, d := range c.domains {
		if d.leaf() {
			sum := 0.0
			for i := d.lo; i < d.hi; i++ {
				sum += c.assigned[i]
				if c.assigned[i] < c.floor-eps {
					return fmt.Errorf("cluster: node %d cap %.9g W below the %.9g W floor", i, c.assigned[i], c.floor)
				}
			}
			if math.Abs(sum-d.budget) > eps*math.Max(1, d.budget) {
				return fmt.Errorf("cluster: leaf %s caps sum to %.9g W, budget is %.9g W", d.name, sum, d.budget)
			}
			continue
		}
		sum := 0.0
		for _, ch := range d.children {
			sum += ch.budget
		}
		if math.Abs(sum-d.budget) > eps*math.Max(1, d.budget) {
			return fmt.Errorf("cluster: domain %s children sum to %.9g W, budget is %.9g W", d.name, sum, d.budget)
		}
	}
	return nil
}
