package server

// The cluster serving layer promotes cluster.Coordinator from an offline
// experiment to a served subsystem: each live cluster runs on the same
// live runtime as a node (one supervised goroutine, drain and panic
// isolation), stepped one coordinator epoch per tick with the node
// sessions advanced concurrently on a bounded worker pool, and observable
// over REST, an NDJSON epoch stream, and pupil_cluster_* exporter
// families.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/pipeline"
)

// Defaults for cluster tick pacing.
const (
	// DefaultClusterEpochSim is the simulated time one tick (one
	// coordinator epoch) advances.
	DefaultClusterEpochSim = time.Second
	// DefaultClusterTickReal is the wall-clock interval between epochs;
	// together with DefaultClusterEpochSim a cluster runs at 4x real time.
	DefaultClusterTickReal = 250 * time.Millisecond
)

// ClusterNodeConfig names one machine of a cluster to create. Platform,
// technique, and workload resolution follow NodeConfig exactly.
type ClusterNodeConfig struct {
	// Name is an optional human label; defaults to node<index>.
	Name string `json:"name,omitempty"`
	// Platform is "server" (default) or "mobile".
	Platform string `json:"platform,omitempty"`
	// Technique selects the node-level capper (default PUPiL).
	Technique string `json:"technique,omitempty"`
	// Mix launches a named multi-application mix; mutually exclusive with
	// Workloads.
	Mix string `json:"mix,omitempty"`
	// Workloads launches the listed benchmarks together.
	Workloads []WorkloadConfig `json:"workloads,omitempty"`
}

// ClusterTopologyConfig groups a cluster's nodes into hierarchical budget
// domains (racks, optionally rows under a datacenter root); see
// cluster.Topology. Omitting it keeps the flat coordinator.
type ClusterTopologyConfig struct {
	// NodesPerRack groups consecutive nodes into racks of this size.
	NodesPerRack int `json:"nodes_per_rack"`
	// RacksPerRow optionally groups consecutive racks into rows, adding a
	// third budget level.
	RacksPerRow int `json:"racks_per_row,omitempty"`
	// RebalanceEvery is the parent-level rebalance cadence in epochs
	// (default 1: every epoch).
	RebalanceEvery int `json:"rebalance_every,omitempty"`
}

// ClusterHealthConfig enables and tunes fleet health tracking; see
// cluster.HealthConfig for field semantics. Its presence in a
// ClusterConfig — even empty, taking every default — turns quarantine on;
// omitting it keeps the naive coordinator and byte-identical output.
type ClusterHealthConfig struct {
	SuspectEpochs    int     `json:"suspect_epochs,omitempty"`
	RecoverEpochs    int     `json:"recover_epochs,omitempty"`
	ProbeAfterEpochs int     `json:"probe_after_epochs,omitempty"`
	MaxBackoffEpochs int     `json:"max_backoff_epochs,omitempty"`
	OverCapFrac      float64 `json:"over_cap_frac,omitempty"`
	StaleEpochs      int     `json:"stale_epochs,omitempty"`
}

func (h *ClusterHealthConfig) engine() *cluster.HealthConfig {
	if h == nil {
		return nil
	}
	return &cluster.HealthConfig{
		SuspectEpochs:    h.SuspectEpochs,
		RecoverEpochs:    h.RecoverEpochs,
		ProbeAfterEpochs: h.ProbeAfterEpochs,
		MaxBackoffEpochs: h.MaxBackoffEpochs,
		OverCapFrac:      h.OverCapFrac,
		StaleEpochs:      h.StaleEpochs,
	}
}

// ClusterFaultConfig is the API form of one cluster fault: the scenario
// plus its target — one node by index, or every node of a named budget
// domain (the rack-correlated failure). Exactly one of Node and Domain
// must be set. Cluster-scoped kinds ("crash"/"hang"/"flap" on target
// "node", "corrupt" on "demand-report") hit the coordinator's epoch
// loop; node-scoped kinds forward into the member node's own injector.
type ClusterFaultConfig struct {
	FaultConfig
	Node   *int   `json:"node,omitempty"`
	Domain string `json:"domain,omitempty"`
}

// ClusterConfig describes a cluster to create.
type ClusterConfig struct {
	// Name is an optional human label; the manager assigns the ID.
	Name string `json:"name,omitempty"`
	// Nodes lists the cluster's machines (at least one).
	Nodes []ClusterNodeConfig `json:"nodes"`
	// BudgetWatts is the global power budget the coordinator partitions.
	BudgetWatts float64 `json:"budget_watts"`
	// Policy selects the rebalancing policy: "even" (default),
	// "demand-shift", or "proportional".
	Policy string `json:"policy,omitempty"`
	// FloorWatts is the minimum cap any node may be assigned (default 25).
	FloorWatts float64 `json:"floor_watts,omitempty"`
	// EpochSimMS is the simulated coordinator epoch per tick in
	// milliseconds (default 1000).
	EpochSimMS int `json:"epoch_sim_ms,omitempty"`
	// TickRealMS is the wall-clock interval between epochs in milliseconds
	// (default 250). FreeRun overrides it.
	TickRealMS int `json:"tick_real_ms,omitempty"`
	// FreeRun steps epochs as fast as the host allows.
	FreeRun bool `json:"free_run,omitempty"`
	// MaxSimS stops the cluster after this much simulated time; 0 runs
	// until deleted.
	MaxSimS float64 `json:"max_sim_s,omitempty"`
	// Seed makes the cluster's run reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// Parallel bounds the worker pool that advances node sessions inside
	// one epoch (<= 0 means all cores). Never affects results.
	Parallel int `json:"parallel,omitempty"`
	// Topology optionally arranges the nodes into hierarchical budget
	// domains (rack -> row -> datacenter).
	Topology *ClusterTopologyConfig `json:"topology,omitempty"`
	// Health enables fleet health tracking and quarantine; omitted keeps
	// the naive coordinator.
	Health *ClusterHealthConfig `json:"health,omitempty"`
	// Faults schedules cluster fault scenarios at creation; more can be
	// injected later through POST /v1/clusters/{id}/faults.
	Faults []ClusterFaultConfig `json:"faults,omitempty"`
}

// ClusterNodeStatus is the API view of one node of a cluster.
type ClusterNodeStatus struct {
	Index     int      `json:"index"`
	Name      string   `json:"name"`
	Technique string   `json:"technique"`
	Workloads []string `json:"workloads"`
	// CapWatts is the node's currently assigned share of the budget.
	CapWatts float64 `json:"cap_watts"`
	// MeanPowerWatts and MeanRateHBs average the trailing epoch.
	MeanPowerWatts float64 `json:"mean_power_watts"`
	MeanRateHBs    float64 `json:"mean_rate_hbs"`
	// Health is the node's health state ("healthy", "suspect",
	// "quarantined", "recovering"); omitted when the cluster was created
	// without health tracking.
	Health string `json:"health,omitempty"`
}

// ClusterDomainStatus is the API view of one budget domain of a
// hierarchical cluster: the coordinator's own snapshot, served as is.
type ClusterDomainStatus = cluster.DomainSnapshot

// ClusterStatus is the API view of a cluster.
type ClusterStatus struct {
	ID     string `json:"id"`
	Name   string `json:"name,omitempty"`
	State  State  `json:"state"`
	Policy string `json:"policy"`
	// Epoch counts coordinator epochs stepped so far.
	Epoch uint64  `json:"epoch"`
	SimS  float64 `json:"sim_s"`
	// BudgetWatts is the global budget; node cap_watts always sum to it
	// after a rebalance.
	BudgetWatts float64 `json:"budget_watts"`
	// TotalPowerWatts and TotalPerfHBs sum the nodes' trailing-epoch means.
	TotalPowerWatts float64             `json:"total_power_watts"`
	TotalPerfHBs    float64             `json:"total_perf_hbs"`
	Nodes           []ClusterNodeStatus `json:"nodes"`
	// Domains carries the budget-domain tree in breadth-first order (root
	// first); omitted for flat clusters.
	Domains     []ClusterDomainStatus `json:"domains,omitempty"`
	Subscribers int                   `json:"subscribers"`
	// StreamDropped counts samples lost across all of this cluster's
	// stream subscribers (including closed ones) to full ring buffers.
	StreamDropped uint64 `json:"stream_dropped,omitempty"`
	// Quarantined counts benched nodes (quarantined or probing) and
	// ReclaimedWatts sums the budget reclaimed from them; both omitted
	// when zero, so health-off output is unchanged.
	Quarantined    int     `json:"quarantined,omitempty"`
	ReclaimedWatts float64 `json:"reclaimed_watts,omitempty"`
	// FailReason carries the panic message of a failed cluster.
	FailReason string `json:"fail_reason,omitempty"`
}

// ClusterSample is one per-epoch record pushed to cluster stream
// subscribers.
type ClusterSample struct {
	Cluster string  `json:"cluster"`
	Epoch   uint64  `json:"epoch"`
	SimS    float64 `json:"sim_s"`
	// BudgetWatts is the budget in force when the epoch completed.
	BudgetWatts float64 `json:"budget_watts"`
	// CapsWatts is the per-node assignment after the epoch's rebalance.
	CapsWatts []float64 `json:"caps_watts"`
	// NodePowerWatts is each node's mean power over the epoch.
	NodePowerWatts []float64 `json:"node_power_watts"`
	// TotalPowerWatts and TotalPerfHBs sum the nodes' epoch means.
	TotalPowerWatts float64 `json:"total_power_watts"`
	TotalPerfHBs    float64 `json:"total_perf_hbs"`
	// Domains carries per-domain budgets and fairness for hierarchical
	// clusters; omitted for flat clusters.
	Domains []ClusterDomainStatus `json:"domains,omitempty"`
	// NodeHealth is each node's health state; omitted (with Quarantined
	// and ReclaimedWatts) for clusters created without health tracking,
	// keeping their stream output byte-identical.
	NodeHealth     []string `json:"node_health,omitempty"`
	Quarantined    int      `json:"quarantined,omitempty"`
	ReclaimedWatts float64  `json:"reclaimed_watts,omitempty"`
	// Dropped counts samples this subscriber lost to a full buffer; it is
	// filled in by the streaming layer, not the producer.
	Dropped uint64 `json:"dropped,omitempty"`
}

// withDropped stamps a subscriber's drop count on a sample before it is
// streamed.
func (s ClusterSample) withDropped(n uint64) ClusterSample {
	s.Dropped = n
	return s
}

// ClusterFaultEvent is the API view of one cluster fault transition —
// onset or clearance — on one node.
type ClusterFaultEvent struct {
	SimS   float64 `json:"sim_s"`
	Node   int     `json:"node"`
	Fault  string  `json:"fault"`
	Active bool    `json:"active"`
}

// ClusterHealthEvent is the API view of one node health transition.
type ClusterHealthEvent struct {
	SimS   float64 `json:"sim_s"`
	Node   int     `json:"node"`
	From   string  `json:"from"`
	To     string  `json:"to"`
	Reason string  `json:"reason"`
}

// ClusterNodeFaults lists one node's scheduled fault scenarios,
// cluster-scoped first, onsets in absolute simulated time.
type ClusterNodeFaults struct {
	Node      int           `json:"node"`
	Scenarios []FaultConfig `json:"scenarios"`
	Active    int           `json:"active"`
}

// ClusterFaultInfo is the API view of a cluster's fault-injection and
// fleet-health state. The health fields are present only for clusters
// created with health tracking.
type ClusterFaultInfo struct {
	// Nodes lists every node with at least one scheduled scenario.
	Nodes []ClusterNodeFaults `json:"nodes"`
	// Active counts scenarios currently in effect across the cluster.
	Active int `json:"active"`
	// Events logs fault onsets and clearances observed so far, in time
	// order (cluster-scoped transitions at epoch boundaries, node-scoped
	// ones on the member node's own clock).
	Events []ClusterFaultEvent `json:"events"`
	// Health is each node's current health state, indexed like Nodes in
	// the cluster status.
	Health []string `json:"health,omitempty"`
	// HealthEvents logs node health transitions.
	HealthEvents []ClusterHealthEvent `json:"health_events,omitempty"`
	// Quarantined counts benched nodes; ReclaimedWatts sums the budget
	// reclaimed from them.
	Quarantined    int     `json:"quarantined,omitempty"`
	ReclaimedWatts float64 `json:"reclaimed_watts,omitempty"`
}

// Cluster is one live coordinator owned by the manager: a fleet
// coordinator stepped one epoch per tick by the live runtime.
type Cluster struct {
	live[ClusterSample]
	cfg         ClusterConfig
	nodeTech    []string   // resolved technique per node
	nodeNames   []string   // resolved display name per node
	nodeApps    [][]string // resolved workload names per node
	nodeDomains []string   // leaf (rack) domain per node; nil when flat

	// healthOn records whether the cluster was created with fleet health
	// tracking, so failed clusters can still answer without the coordinator.
	healthOn bool

	// Guarded by the runtime's mu: the coordinator and lastSnap, its
	// reused SnapshotInto target.
	coord    *cluster.Coordinator
	lastSnap cluster.Snapshot

	// Per-epoch scratch reused by step so the steady-state epoch path
	// stays allocation-free; the built sample aliases these buffers and is
	// deep-copied only when stream subscribers will retain it.
	capsBuf   []float64
	powerBuf  []float64
	domBuf    []ClusterDomainStatus
	healthBuf []string

	// pub is the published status view, guarded by the runtime's pubMu.
	// Its Nodes and Domains slices are pub-owned backing arrays reused
	// across refreshes (NodeSnapshot and DomainSnapshot are flat value
	// structs), so the steady-state epoch path stays allocation-free;
	// Status copies them out per call.
	pub ClusterStatus
}

// SetBudget changes a running cluster's global power budget live; the
// assignment rescales to the new budget immediately.
func (c *Cluster) SetBudget(watts float64) error {
	return c.mutate(func() error { return c.coord.SetBudget(watts) })
}

// SetNodeCap reassigns one node's share of a running cluster directly,
// bypassing the policy until the next epoch's rebalance.
func (c *Cluster) SetNodeCap(i int, watts float64) error {
	return c.mutate(func() error {
		if i < 0 || i >= c.coord.NodeCount() {
			return fmt.Errorf("%w: cluster %s has no node %d", ErrNotFound, c.id, i)
		}
		return c.coord.SetNodeCap(i, watts)
	})
}

// InjectFault schedules a fault scenario against one node or a whole
// budget domain of a running cluster, onset relative to the cluster's
// current simulated time.
func (c *Cluster) InjectFault(f ClusterFaultConfig) error {
	return c.mutate(func() error { return c.injectLocked(f) })
}

// injectLocked routes one fault to its target, mapping engine errors to
// the API error taxonomy. Callers hold c.mu (or own the cluster solely).
func (c *Cluster) injectLocked(f ClusterFaultConfig) error {
	switch {
	case f.Node != nil && f.Domain != "":
		return fmt.Errorf("%w: fault targets both node and domain", ErrBadConfig)
	case f.Node == nil && f.Domain == "":
		return fmt.Errorf("%w: fault needs a node or domain target", ErrBadConfig)
	case f.Node != nil:
		i := *f.Node
		if i < 0 || i >= c.coord.NodeCount() {
			return fmt.Errorf("%w: cluster %s has no node %d", ErrNotFound, c.id, i)
		}
		if err := c.coord.InjectNodeFault(i, f.scenario()); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		return nil
	default:
		if _, err := c.coord.InjectDomainFault(f.Domain, f.scenario()); err != nil {
			if errors.Is(err, faults.ErrInvalidScenario) {
				return fmt.Errorf("%w: %v", ErrBadConfig, err)
			}
			return fmt.Errorf("%w: %v", ErrNotFound, err)
		}
		return nil
	}
}

// FaultInfo reports the cluster's scheduled faults, observed transitions,
// and — when health tracking is on — the fleet health view.
func (c *Cluster) FaultInfo() ClusterFaultInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	info := ClusterFaultInfo{Nodes: []ClusterNodeFaults{}, Events: []ClusterFaultEvent{}}
	if c.state == StateFailed {
		return info
	}
	n := c.coord.NodeCount()
	for i := 0; i < n; i++ {
		var scs []FaultConfig
		for _, sc := range c.coord.NodeFaults(i) {
			scs = append(scs, faultConfigOf(sc))
		}
		for _, sc := range c.coord.NodeSessionFaults(i) {
			scs = append(scs, faultConfigOf(sc))
		}
		if len(scs) == 0 {
			continue
		}
		act := c.coord.NodeFaultsActive(i) + c.coord.NodeSessionFaultsActive(i)
		info.Nodes = append(info.Nodes, ClusterNodeFaults{Node: i, Scenarios: scs, Active: act})
		info.Active += act
	}
	for _, ev := range c.coord.ChaosEvents() {
		info.Events = append(info.Events, ClusterFaultEvent{SimS: ev.T.Seconds(), Node: ev.Node, Fault: ev.Scenario.String(), Active: ev.Active})
	}
	for i := 0; i < n; i++ {
		for _, ev := range c.coord.NodeSessionFaultEvents(i) {
			info.Events = append(info.Events, ClusterFaultEvent{SimS: ev.T.Seconds(), Node: i, Fault: ev.Scenario.String(), Active: ev.Active})
		}
	}
	sort.SliceStable(info.Events, func(a, b int) bool {
		return info.Events[a].SimS < info.Events[b].SimS
	})
	if c.healthOn {
		states := c.coord.HealthStates(nil)
		info.Health = make([]string, len(states))
		for i, s := range states {
			info.Health[i] = s.String()
		}
		for _, ev := range c.coord.HealthEvents() {
			info.HealthEvents = append(info.HealthEvents, ClusterHealthEvent{
				SimS: ev.T.Seconds(), Node: ev.Node,
				From: ev.From.String(), To: ev.To.String(), Reason: ev.Reason,
			})
		}
		info.Quarantined = c.coord.QuarantinedCount()
		info.ReclaimedWatts = c.coord.ReclaimedWatts()
	}
	return info
}

// Status reports the cluster's current state, served from the published
// status view: it never waits on the epoch lock (an epoch step at fleet
// scale holds it for hundreds of milliseconds), and a failed cluster keeps
// answering with its last coherent view. The Nodes and Domains slices are
// copied out, since the published backing arrays are reused across epochs.
func (c *Cluster) Status() ClusterStatus {
	c.pubMu.Lock()
	st := c.pub
	st.Nodes = append([]ClusterNodeStatus(nil), c.pub.Nodes...)
	st.Domains = append([]ClusterDomainStatus(nil), c.pub.Domains...)
	st.State, st.FailReason = c.pubState, c.pubFail
	c.pubMu.Unlock()
	// ID is immutable after creation and assigned after build, so it is
	// read directly rather than through the published view.
	st.ID = c.id
	st.Epoch = c.epoch.Load()
	st.Subscribers = c.fan.Subscribers()
	st.StreamDropped = c.fan.TotalDropped()
	return st
}

// step runs one coordinator epoch and builds its sample.
func (c *Cluster) step(epoch uint64) (ClusterSample, time.Duration, error) {
	if err := c.coord.Step(c.tickSim); err != nil {
		return ClusterSample{}, 0, err
	}
	c.snapshot()
	sn := &c.lastSnap
	caps, pow := c.capsBuf[:0], c.powerBuf[:0]
	for _, ns := range sn.Nodes {
		caps = append(caps, ns.CapWatts)
		pow = append(pow, ns.MeanPower)
	}
	c.capsBuf, c.powerBuf = caps, pow
	// A copy, not an alias of lastSnap.Domains: families reads the sample
	// after the tick lock is released, while a concurrent SetBudget
	// re-snapshots into lastSnap under that lock.
	doms := append(c.domBuf[:0], sn.Domains...)
	c.domBuf = doms
	smp := ClusterSample{
		Cluster:         c.id,
		Epoch:           epoch,
		SimS:            sn.Now.Seconds(),
		BudgetWatts:     sn.Budget,
		CapsWatts:       caps,
		NodePowerWatts:  pow,
		TotalPowerWatts: sn.TotalPower,
		TotalPerfHBs:    sn.TotalRate,
		Quarantined:     sn.Quarantined,
		ReclaimedWatts:  sn.ReclaimedWatts,
	}
	if len(doms) > 0 {
		smp.Domains = doms
	}
	if c.healthOn {
		// HealthState.String returns interned constants, so this rebuild
		// costs no allocations once the buffer has grown.
		hs := c.healthBuf[:0]
		for _, ns := range sn.Nodes {
			hs = append(hs, ns.Health.String())
		}
		c.healthBuf = hs
		smp.NodeHealth = hs
	}
	if c.fan.Subscribers() > 0 {
		// Subscriber rings retain the sample past this epoch, so it must
		// not alias the reused buffers. Subscribe takes the same lock, so
		// no subscriber can appear between this check and the publish.
		smp.CapsWatts = append([]float64(nil), caps...)
		smp.NodePowerWatts = append([]float64(nil), pow...)
		if smp.Domains != nil {
			smp.Domains = append([]ClusterDomainStatus(nil), doms...)
		}
		if smp.NodeHealth != nil {
			smp.NodeHealth = append([]string(nil), smp.NodeHealth...)
		}
	}
	return smp, sn.Now, nil
}

func (c *Cluster) snapshot() { c.coord.SnapshotInto(&c.lastSnap) }

// publish rebuilds the published status view from lastSnap, reusing the
// view's own backing arrays so the per-epoch refresh is allocation-free in
// steady state.
func (c *Cluster) publish() {
	sn := &c.lastSnap
	st := &c.pub
	st.Name = c.cfg.Name
	st.Policy = sn.Policy
	st.SimS = sn.Now.Seconds()
	st.BudgetWatts = sn.Budget
	st.TotalPowerWatts = sn.TotalPower
	st.TotalPerfHBs = sn.TotalRate
	st.Domains = append(st.Domains[:0], sn.Domains...)
	st.Quarantined = sn.Quarantined
	st.ReclaimedWatts = sn.ReclaimedWatts
	nodes := st.Nodes[:0]
	for i, ns := range sn.Nodes {
		ncs := ClusterNodeStatus{
			Index:          i,
			Name:           ns.Name,
			Technique:      c.nodeTech[i],
			Workloads:      c.nodeApps[i],
			CapWatts:       ns.CapWatts,
			MeanPowerWatts: ns.MeanPower,
			MeanRateHBs:    ns.MeanRate,
		}
		if c.healthOn {
			ncs.Health = ns.Health.String()
		}
		nodes = append(nodes, ncs)
	}
	st.Nodes = nodes
}

// families renders the epoch's metric families — budget, aggregate power
// and perf, per-domain budgets, and per-node cap shares and health — for
// the manager's telemetry router.
func (c *Cluster) families(b []pipeline.Sample, smp ClusterSample) []pipeline.Sample {
	b = append(b,
		pipeline.Sample{Family: "pupil_cluster_budget_watts", Cluster: c.id, SimS: smp.SimS, Value: smp.BudgetWatts},
		pipeline.Sample{Family: "pupil_cluster_power_watts", Cluster: c.id, SimS: smp.SimS, Value: smp.TotalPowerWatts},
		pipeline.Sample{Family: "pupil_cluster_perf_hbs", Cluster: c.id, SimS: smp.SimS, Value: smp.TotalPerfHBs})
	for _, d := range smp.Domains {
		b = append(b,
			pipeline.Sample{Family: "pupil_cluster_domain_budget_watts", Cluster: c.id, Domain: d.Name, SimS: smp.SimS, Value: d.BudgetWatts},
			pipeline.Sample{Family: "pupil_cluster_domain_power_watts", Cluster: c.id, Domain: d.Name, SimS: smp.SimS, Value: d.MeanPowerWatts},
			pipeline.Sample{Family: "pupil_cluster_domain_fair_share_min", Cluster: c.id, Domain: d.Name, SimS: smp.SimS, Value: d.FairShareMin})
	}
	for i, capW := range smp.CapsWatts {
		b = append(b, pipeline.Sample{Family: "pupil_cluster_node_cap_watts", Cluster: c.id, Domain: c.nodeDomain(i), Node: c.nodeName(i), SimS: smp.SimS, Value: capW})
	}
	if smp.NodeHealth != nil {
		for i, h := range smp.NodeHealth {
			b = append(b, pipeline.Sample{Family: "pupil_cluster_node_health", Cluster: c.id, Domain: c.nodeDomain(i), Node: c.nodeName(i), State: h, SimS: smp.SimS, Value: healthStateValue[h]})
		}
		b = append(b,
			pipeline.Sample{Family: "pupil_cluster_quarantined", Cluster: c.id, SimS: smp.SimS, Value: float64(smp.Quarantined)},
			pipeline.Sample{Family: "pupil_cluster_budget_reclaimed_watts", Cluster: c.id, SimS: smp.SimS, Value: smp.ReclaimedWatts})
	}
	return b
}

// healthStateValue maps a health-state label back to its numeric level for
// the pupil_cluster_node_health gauge (0 healthy .. 3 recovering), so
// dashboards can alert on value >= 2 while keeping the label for humans.
var healthStateValue = map[string]float64{
	cluster.Healthy.String():     0,
	cluster.Suspect.String():     1,
	cluster.Quarantined.String(): 2,
	cluster.Recovering.String():  3,
}

// nodeName returns node i's resolved name (the coordinator's label).
func (c *Cluster) nodeName(i int) string {
	if i < len(c.nodeNames) {
		return c.nodeNames[i]
	}
	return ""
}

// nodeDomain returns node i's leaf (rack) domain name; "" when flat, so
// flat clusters' series keep their exact pre-hierarchy label sets.
func (c *Cluster) nodeDomain(i int) string {
	if i < len(c.nodeDomains) {
		return c.nodeDomains[i]
	}
	return ""
}

// CreateCluster builds a cluster from its configuration and starts its
// epoch loop.
func (m *Manager) CreateCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	return m.clusters.add(m, c)
}

// NewDetachedCluster builds a cluster whose epoch loop is not started:
// callers step it synchronously with StepOnce. The perf harness benchmarks
// the epoch path this way, without goroutine scheduling noise.
func NewDetachedCluster(cfg ClusterConfig) (*Cluster, error) {
	c, err := buildCluster(cfg)
	if err != nil {
		return nil, err
	}
	c.id = "detached"
	return c, nil
}

// GetCluster looks a cluster up by ID.
func (m *Manager) GetCluster(id string) (*Cluster, bool) { return m.clusters.get(id) }

// Clusters lists the live clusters in creation order.
func (m *Manager) Clusters() []*Cluster { return m.clusters.list() }

// ClustersCreated and ClustersDeleted report lifetime counters for the
// exporter.
func (m *Manager) ClustersCreated() uint64 { return m.clusters.created.Load() }

// ClustersDeleted reports how many clusters have been torn down.
func (m *Manager) ClustersDeleted() uint64 { return m.clusters.deleted.Load() }

// DeleteCluster stops a cluster's epoch loop, waits for it to drain, and
// removes it from the registry.
func (m *Manager) DeleteCluster(id string) error { return m.clusters.remove(id) }

// buildCluster turns a ClusterConfig into an unstarted Cluster: node specs
// resolved through the same platform/technique/workload tables as single
// nodes, the policy by name, and the coordinator validated.
func buildCluster(cfg ClusterConfig) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: cluster has no nodes", ErrBadConfig)
	}
	policy, err := cluster.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	c := &Cluster{cfg: cfg}
	epochSim := pace(cfg.EpochSimMS, DefaultClusterEpochSim)

	specs := make([]cluster.NodeSpec, len(cfg.Nodes))
	for i, nc := range cfg.Nodes {
		plat, err := platformByName(nc.Platform)
		if err != nil {
			return nil, err
		}
		tech := nc.Technique
		if tech == "" {
			tech = "PUPiL"
		}
		// Build the controller now so a bad name fails the create; the
		// coordinator's one constructor call hands this instance over.
		ctrl, err := control.New(tech, plat)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		wl, err := resolveWorkloads(NodeConfig{Mix: nc.Mix, Workloads: nc.Workloads}, plat)
		if err != nil {
			return nil, fmt.Errorf("cluster node %d: %w", i, err)
		}
		name := nc.Name
		if name == "" {
			name = fmt.Sprintf("node%d", i)
		}
		apps := make([]string, len(wl))
		for j, s := range wl {
			apps[j] = s.Profile.Name
		}
		c.nodeTech = append(c.nodeTech, tech)
		c.nodeNames = append(c.nodeNames, name)
		c.nodeApps = append(c.nodeApps, apps)
		specs[i] = cluster.NodeSpec{
			Name:          name,
			Platform:      plat,
			Specs:         wl,
			NewController: func(*machine.Platform) core.Controller { return ctrl },
		}
	}

	var topo cluster.Topology
	if cfg.Topology != nil {
		topo = cluster.Topology{
			NodesPerRack:   cfg.Topology.NodesPerRack,
			RacksPerRow:    cfg.Topology.RacksPerRow,
			RebalanceEvery: cfg.Topology.RebalanceEvery,
		}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Nodes:       specs,
		BudgetWatts: cfg.BudgetWatts,
		Epoch:       epochSim,
		Policy:      policy,
		Seed:        cfg.Seed,
		FloorWatts:  cfg.FloorWatts,
		Parallel:    cfg.Parallel,
		Topology:    topo,
		Health:      cfg.Health.engine(),
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	c.coord = coord
	c.healthOn = cfg.Health != nil
	c.nodeDomains = coord.NodeDomains()
	for i, f := range cfg.Faults {
		if err := c.injectLocked(f); err != nil {
			return nil, fmt.Errorf("cluster fault %d: %w", i, err)
		}
	}
	c.setup(c, "cluster", "cluster", epochSim, pace(cfg.TickRealMS, DefaultClusterTickReal), cfg.FreeRun, cfg.MaxSimS)
	return c, nil
}
