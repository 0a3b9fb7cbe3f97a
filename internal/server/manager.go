// Package server is the pupild control plane: a session manager that owns
// concurrently running simulated nodes, an HTTP REST API to create them,
// change their power caps live, and stream per-epoch telemetry, and a
// Prometheus-style text exporter.
//
// The library runs power-capping scenarios in-process to completion; real
// power-capping deployments are long-running services whose caps external
// agents change at runtime. This package closes that gap: each node is a
// driver.Session advanced by its own goroutine in wall-clock-decoupled
// ticks, with cap changes and introspection serialized against the tick
// loop, and samples fanned out to subscribers over bounded ring buffers so
// a slow stream consumer drops samples instead of stalling the simulation.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"pupil/internal/control"
	"pupil/internal/driver"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/pipeline"
	"pupil/internal/workload"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrNotFound reports an unknown node or cluster ID, or an unknown
	// node index or budget domain of a cluster.
	ErrNotFound = errors.New("server: not found")
	// ErrBadConfig reports an invalid request to either kind: a malformed
	// body, configuration or query parameter.
	ErrBadConfig = errors.New("server: bad request")
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("server: manager closed")
	// ErrNotRunning reports a mutation on a node or cluster whose tick
	// loop has ended (done, stopped, or failed).
	ErrNotRunning = errors.New("server: not running")
)

// Defaults for node tick pacing.
const (
	// DefaultTickSim is the simulated time advanced per tick.
	DefaultTickSim = 250 * time.Millisecond
	// DefaultTickReal is the wall-clock interval between ticks; together
	// with DefaultTickSim a node runs at 5x real time.
	DefaultTickReal = 50 * time.Millisecond
)

// WorkloadConfig names one application to run on a node.
type WorkloadConfig struct {
	Benchmark string `json:"benchmark"`
	// Threads defaults to the platform's hardware thread count.
	Threads int `json:"threads,omitempty"`
}

// NodeConfig describes a node to create.
type NodeConfig struct {
	// Name is an optional human label; the manager assigns the ID.
	Name string `json:"name,omitempty"`
	// Platform is "server" (the default dual-socket Xeon E5-2690),
	// "mobile" (the dark-silicon SoC), or "thermal" (the thermally
	// constrained dense-chassis Xeon with temperature-dependent leakage).
	Platform string `json:"platform,omitempty"`
	// Technique selects the controller: RAPL, Soft-DVFS, Soft-Modeling,
	// Soft-Decision, PUPiL (default), or PUPiL-EAS.
	Technique string `json:"technique,omitempty"`
	// Mix launches a named Table-4 multi-application mix; mutually
	// exclusive with Workloads.
	Mix string `json:"mix,omitempty"`
	// Workloads launches the listed benchmarks together.
	Workloads []WorkloadConfig `json:"workloads,omitempty"`
	// CapWatts is the node's initial power cap.
	CapWatts float64 `json:"cap_watts"`
	// Seed makes the node's run reproducible.
	Seed uint64 `json:"seed,omitempty"`
	// TickSimMS is simulated milliseconds advanced per tick (default 250).
	TickSimMS int `json:"tick_sim_ms,omitempty"`
	// TickRealMS is the wall-clock tick interval in milliseconds (default
	// 50). FreeRun overrides it.
	TickRealMS int `json:"tick_real_ms,omitempty"`
	// FreeRun ticks as fast as the host allows — for tests and batch use.
	FreeRun bool `json:"free_run,omitempty"`
	// MaxSimS stops the node after this much simulated time; 0 runs until
	// deleted.
	MaxSimS float64 `json:"max_sim_s,omitempty"`
	// Watchdog enables the node's supervision layer: sustained cap breach
	// or a stalled decision loop degrades the node to hardware-only
	// capping, with exponential-backoff recovery probes.
	Watchdog bool `json:"watchdog,omitempty"`
	// Thermal overrides fields of the platform's thermal model (only valid
	// on platforms that have one); zero fields keep the platform defaults.
	Thermal *ThermalConfig `json:"thermal,omitempty"`
	// ThermalGovernor arms the thermal-headroom governor: the RAPL cap is
	// pre-emptively tightened as the junction approaches TjMax instead of
	// waiting for the package protection's duty-cycle cliff. Requires a
	// platform with a thermal model.
	ThermalGovernor bool `json:"thermal_governor,omitempty"`
	// Faults schedules deterministic fault scenarios at creation; more can
	// be injected later through POST /v1/nodes/{id}/faults.
	Faults []FaultConfig `json:"faults,omitempty"`
}

// ThermalConfig is the API form of a per-node thermal model override.
// Zero-valued fields keep the platform's defaults; the merged model is
// validated exactly as the engine would, so the API rejects what the
// engine would reject.
type ThermalConfig struct {
	// RthCPerW and CthJPerC are the package thermal resistance (C/W) and
	// capacitance (J/C).
	RthCPerW float64 `json:"rth_c_per_w,omitempty"`
	CthJPerC float64 `json:"cth_j_per_c,omitempty"`
	// TjMaxC is the junction trip point; AmbientC the inlet temperature.
	TjMaxC   float64 `json:"tj_max_c,omitempty"`
	AmbientC float64 `json:"ambient_c,omitempty"`
	// ThrottleDuty is the duty factor while thermally throttled;
	// HysteresisC the cooling below TjMax required to unthrottle.
	ThrottleDuty float64 `json:"throttle_duty,omitempty"`
	HysteresisC  float64 `json:"hysteresis_c,omitempty"`
}

// apply merges the override's non-zero fields into the platform's thermal
// model.
func (t *ThermalConfig) apply(th *machine.Thermal) {
	if t.RthCPerW != 0 {
		th.RthCPerW = t.RthCPerW
	}
	if t.CthJPerC != 0 {
		th.CthJPerC = t.CthJPerC
	}
	if t.TjMaxC != 0 {
		th.TjMaxC = t.TjMaxC
	}
	if t.AmbientC != 0 {
		th.AmbientC = t.AmbientC
	}
	if t.ThrottleDuty != 0 {
		th.ThrottleDuty = t.ThrottleDuty
	}
	if t.HysteresisC != 0 {
		th.HysteresisC = t.HysteresisC
	}
}

// FaultConfig is the API form of one fault scenario. Kind/Target pairs and
// magnitude semantics follow the faults package ("stall"/"controller",
// "stuck"/"power-sensor", "misprogram"/"rapl-cap", ...).
type FaultConfig struct {
	Kind      string  `json:"kind"`
	Target    string  `json:"target"`
	OnsetS    float64 `json:"onset_s,omitempty"`
	DurationS float64 `json:"duration_s"`
	Magnitude float64 `json:"magnitude,omitempty"`
}

// scenario converts to the engine's representation; validation happens in
// the faults package so the API rejects exactly what the engine would.
func (f FaultConfig) scenario() faults.Scenario {
	return faults.Scenario{
		Kind:      faults.Kind(f.Kind),
		Target:    faults.Target(f.Target),
		Onset:     time.Duration(f.OnsetS * float64(time.Second)),
		Duration:  time.Duration(f.DurationS * float64(time.Second)),
		Magnitude: f.Magnitude,
	}
}

func faultConfigOf(sc faults.Scenario) FaultConfig {
	return FaultConfig{
		Kind:      string(sc.Kind),
		Target:    string(sc.Target),
		OnsetS:    sc.Onset.Seconds(),
		DurationS: sc.Duration.Seconds(),
		Magnitude: sc.Magnitude,
	}
}

// FaultEvent is the API view of one fault onset or clearance.
type FaultEvent struct {
	SimS   float64 `json:"sim_s"`
	Fault  string  `json:"fault"`
	Active bool    `json:"active"`
}

// FaultInfo is the API view of a node's fault-injection state.
type FaultInfo struct {
	// Scenarios lists every scheduled fault, onsets in absolute sim time.
	Scenarios []FaultConfig `json:"scenarios"`
	// Active counts scenarios currently in effect.
	Active int `json:"active"`
	// Events logs onsets and clearances observed so far.
	Events []FaultEvent `json:"events"`
}

// Sample is one per-tick telemetry record pushed to stream subscribers.
type Sample struct {
	Node  string `json:"node"`
	Epoch uint64 `json:"epoch"`
	// SimS is the node's simulated time in seconds.
	SimS float64 `json:"sim_s"`
	// CapWatts is the cap in force when the sample was taken.
	CapWatts float64 `json:"cap_watts"`
	// PowerWatts is the instantaneous true power draw.
	PowerWatts float64 `json:"power_watts"`
	// MeanPowerWatts averages true power over the tick just simulated.
	MeanPowerWatts float64 `json:"mean_power_watts"`
	// PerfHBs is the aggregate true work rate (heartbeats/s).
	PerfHBs float64 `json:"perf_hbs"`
	// Dropped counts samples this subscriber lost to a full buffer; it is
	// filled in by the streaming layer, not the producer.
	Dropped uint64 `json:"dropped,omitempty"`
	// FaultsActive counts fault scenarios in effect when sampled.
	FaultsActive int `json:"faults_active,omitempty"`
	// Degraded reports whether the supervision layer has the node off its
	// normal rung (hardware-only, cap-backoff, or probing).
	Degraded bool `json:"degraded,omitempty"`
	// Zones are the per-socket RAPL-style zone readings behind
	// PowerWatts: package totals with their programmed caps, plus core
	// and dram components.
	Zones []driver.ZonePower `json:"zones,omitempty"`
	// Thermal is the per-socket junction temperature, throttle, and
	// governor state (absent on platforms without a thermal model).
	Thermal []driver.SocketTherm `json:"thermal,omitempty"`
}

// withDropped stamps a subscriber's drop count on a sample before it is
// streamed.
func (s Sample) withDropped(n uint64) Sample {
	s.Dropped = n
	return s
}

// State is a node's lifecycle phase.
type State string

// Node lifecycle states.
const (
	StateRunning State = "running" // tick loop advancing
	StateDone    State = "done"    // reached MaxSimS; state still queryable
	StateStopped State = "stopped" // cancelled by delete or shutdown
	StateFailed  State = "failed"  // session panicked; last state queryable
)

// NodeStatus is the API view of a node.
type NodeStatus struct {
	ID             string   `json:"id"`
	Name           string   `json:"name,omitempty"`
	State          State    `json:"state"`
	Platform       string   `json:"platform"`
	Technique      string   `json:"technique"`
	Workloads      []string `json:"workloads"`
	Epoch          uint64   `json:"epoch"`
	SimS           float64  `json:"sim_s"`
	CapWatts       float64  `json:"cap_watts"`
	PowerWatts     float64  `json:"power_watts"`
	MeanPowerWatts float64  `json:"mean_power_watts"`
	PerfHBs        float64  `json:"perf_hbs"`
	EnergyJ        float64  `json:"energy_j"`
	Subscribers    int      `json:"subscribers"`
	// BreachSeconds is the running time the node's power spent above
	// cap*1.03 (after a 1 s startup grace).
	BreachSeconds float64 `json:"breach_seconds"`
	// FaultsActive counts fault scenarios currently in effect.
	FaultsActive int `json:"faults_active"`
	// DegradeLevel names the supervision rung ("normal", "hardware-only",
	// "cap-backoff", "probing"); Degradations counts transitions so far.
	DegradeLevel string `json:"degrade_level"`
	Degradations int    `json:"degradations"`
	// StreamDropped counts samples lost across all of this node's stream
	// subscribers (including closed ones) to full ring buffers.
	StreamDropped uint64 `json:"stream_dropped,omitempty"`
	// Zones are the per-socket RAPL-style power zone readings.
	Zones []driver.ZonePower `json:"zones,omitempty"`
	// Thermal is the per-socket junction temperature, throttle, and
	// governor state (absent on platforms without a thermal model).
	Thermal []driver.SocketTherm `json:"thermal,omitempty"`
	// FailReason carries the panic message of a failed node.
	FailReason string `json:"fail_reason,omitempty"`
}

// Node is one live simulated machine owned by the manager: a driver
// session advanced by the live runtime.
type Node struct {
	live[Sample]
	cfg  NodeConfig
	apps []string

	// Guarded by the runtime's mu: the session, its snapshot after the last
	// tick or mutation, and the last tick's sample.
	sess *driver.Session
	snap driver.Snapshot
	last Sample

	// Guarded by the runtime's pubMu: the published status view.
	pubSnap driver.Snapshot
	pubLast Sample
}

// SetCap changes a running node's power cap live; the controller observes
// it on its next decision interval.
func (n *Node) SetCap(watts float64) error {
	return n.mutate(func() error { return n.sess.SetCap(watts) })
}

// InjectFault schedules a fault scenario on a running node; the onset is
// relative to the node's current simulated time.
func (n *Node) InjectFault(f FaultConfig) error {
	return n.mutate(func() error { return n.sess.InjectFault(f.scenario()) })
}

// FaultInfo reports the node's scheduled faults and observed transitions.
func (n *Node) FaultInfo() FaultInfo {
	n.mu.Lock()
	defer n.mu.Unlock()
	info := FaultInfo{Scenarios: []FaultConfig{}, Events: []FaultEvent{}}
	if n.state == StateFailed {
		return info
	}
	for _, sc := range n.sess.FaultScenarios() {
		info.Scenarios = append(info.Scenarios, faultConfigOf(sc))
	}
	info.Active = n.sess.FaultsActive()
	for _, ev := range n.sess.FaultEvents() {
		info.Events = append(info.Events, FaultEvent{
			SimS:   ev.T.Seconds(),
			Fault:  ev.Scenario.String(),
			Active: ev.Active,
		})
	}
	return info
}

// Status reports the node's current state, served from the published
// snapshot: it never waits on the tick lock, so status reads and /metrics
// scrapes stay fast while the simulation is mid-tick (and a failed node
// keeps answering with its last coherent snapshot). The snapshot's slices
// are immutable once published — each tick publishes freshly built ones —
// so sharing them here is safe.
func (n *Node) Status() NodeStatus {
	n.pubMu.Lock()
	sn, last, state, fail := n.pubSnap, n.pubLast, n.pubState, n.pubFail
	n.pubMu.Unlock()
	return NodeStatus{
		ID:             n.id,
		Name:           n.cfg.Name,
		State:          state,
		Platform:       n.cfg.Platform,
		Technique:      n.cfg.Technique,
		Workloads:      n.apps,
		Epoch:          n.epoch.Load(),
		SimS:           sn.Now.Seconds(),
		CapWatts:       sn.CapWatts,
		PowerWatts:     sn.PowerWatts,
		MeanPowerWatts: last.MeanPowerWatts,
		PerfHBs:        sn.TotalRate(),
		EnergyJ:        sn.EnergyJ,
		Subscribers:    n.fan.Subscribers(),
		BreachSeconds:  sn.BreachSeconds,
		FaultsActive:   sn.FaultsActive,
		DegradeLevel:   sn.DegradeLevel,
		Degradations:   sn.Degradations,
		StreamDropped:  n.fan.TotalDropped(),
		Zones:          sn.Zones,
		Thermal:        sn.Thermal,
		FailReason:     fail,
	}
}

// newNode builds an unregistered node whose tick loop is not started.
func newNode(cfg NodeConfig) (*Node, error) {
	sess, cfg, apps, err := buildSession(cfg)
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, apps: apps, sess: sess}
	n.setup(n, "node", "session", pace(cfg.TickSimMS, DefaultTickSim),
		pace(cfg.TickRealMS, DefaultTickReal), cfg.FreeRun, cfg.MaxSimS)
	// A node reads its session's traces only through the trailing mean of
	// one tick, so the session keeps one tick's window, not its whole run.
	sess.Retain(n.tickSim)
	return n, nil
}

// NewDetachedNode builds a node whose tick loop is not started: callers
// advance it synchronously with StepOnce. The perf harness benchmarks the
// manager's tick path this way, without goroutine scheduling noise; it is
// also useful for deterministic tests over the server tick machinery.
func NewDetachedNode(cfg NodeConfig) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	n.id = "detached"
	return n, nil
}

// step advances the session one increment and builds the tick's sample.
func (n *Node) step(epoch uint64) (Sample, time.Duration, error) {
	n.sess.Advance(n.tickSim)
	n.snapshot()
	sn := &n.snap
	n.last = Sample{
		Node:           n.id,
		Epoch:          epoch,
		SimS:           sn.Now.Seconds(),
		CapWatts:       sn.CapWatts,
		PowerWatts:     sn.PowerWatts,
		MeanPowerWatts: n.sess.MeanPower(n.tickSim),
		PerfHBs:        sn.TotalRate(),
		FaultsActive:   sn.FaultsActive,
		Degraded:       sn.DegradeLevel != "" && sn.DegradeLevel != "normal",
		Zones:          sn.Zones,
		Thermal:        sn.Thermal,
	}
	return n.last, sn.Now, nil
}

func (n *Node) snapshot() { n.snap = n.sess.Snapshot() }

func (n *Node) publish() { n.pubSnap, n.pubLast = n.snap, n.last }

// families renders the tick's metric families — node-level power, cap,
// and perf plus the per-zone power breakdown and thermal state — for the
// manager's telemetry router.
func (n *Node) families(b []pipeline.Sample, smp Sample) []pipeline.Sample {
	b = append(b,
		pipeline.Sample{Family: "pupil_power_watts", Node: n.id, SimS: smp.SimS, Value: smp.PowerWatts},
		pipeline.Sample{Family: "pupil_cap_watts", Node: n.id, SimS: smp.SimS, Value: smp.CapWatts},
		pipeline.Sample{Family: "pupil_perf_hbs", Node: n.id, SimS: smp.SimS, Value: smp.PerfHBs})
	for _, z := range smp.Zones {
		b = append(b, pipeline.Sample{Family: "pupil_power_watts", Node: n.id, Zone: z.Zone, SimS: smp.SimS, Value: z.PowerWatts})
	}
	for _, th := range smp.Thermal {
		throttled := 0.0
		if th.Throttled {
			throttled = 1
		}
		b = append(b,
			pipeline.Sample{Family: "pupil_temp_celsius", Node: n.id, Zone: th.Zone, SimS: smp.SimS, Value: th.TempC},
			pipeline.Sample{Family: "pupil_thermal_throttled", Node: n.id, Zone: th.Zone, SimS: smp.SimS, Value: throttled})
	}
	return b
}

// Manager owns the live nodes and clusters: one registry per kind plus one
// supervised goroutine per live resource, with context-based cancellation
// and a graceful Close that drains every tick loop.
type Manager struct {
	nodes    registry[*Node]
	clusters registry[*Cluster]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// router is the telemetry pipeline every node and cluster publishes
	// through; recent is its always-attached ring sink, serving
	// GET /v1/telemetry/recent.
	router *pipeline.Router
	recent *pipeline.Ring
}

// DefaultRecentSamples is the capacity of the manager's ring sink.
const DefaultRecentSamples = 1024

// NewManager returns an empty manager ready to create nodes, with a
// running telemetry router.
func NewManager() *Manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		nodes:    registry[*Node]{prefix: "n"},
		clusters: registry[*Cluster]{prefix: "c"},
		ctx:      ctx,
		cancel:   cancel,
		router:   pipeline.NewRouter(),
		recent:   pipeline.NewRing(DefaultRecentSamples),
	}
	_ = m.router.AddSink("recent", m.recent)
	m.router.SetDropWarn(5*time.Second, func(dropped uint64) {
		log.Printf("server: telemetry sink lagging; %d samples dropped so far across sinks", dropped)
	})
	return m
}

// Router exposes the manager's telemetry pipeline, for callers attaching
// sinks or reading accounting.
func (m *Manager) Router() *pipeline.Router { return m.router }

// AddSink attaches a named sink to the manager's telemetry router.
func (m *Manager) AddSink(name string, sink pipeline.Sink) error {
	return m.router.AddSink(name, sink)
}

// Recent returns the newest max samples (all retained when max <= 0) from
// the router's ring sink, oldest first.
func (m *Manager) Recent(max int) []pipeline.Sample {
	samples := m.recent.Samples()
	if max > 0 && len(samples) > max {
		samples = samples[len(samples)-max:]
	}
	return samples
}

// Create builds a node from its configuration and starts its tick loop.
func (m *Manager) Create(cfg NodeConfig) (*Node, error) {
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}
	return m.nodes.add(m, n)
}

// Get looks a node up by ID.
func (m *Manager) Get(id string) (*Node, bool) { return m.nodes.get(id) }

// Nodes lists the live nodes in creation order.
func (m *Manager) Nodes() []*Node { return m.nodes.list() }

// Len reports the number of live nodes.
func (m *Manager) Len() int { return m.nodes.len() }

// Created and Deleted report lifetime counters for the exporter.
func (m *Manager) Created() uint64 { return m.nodes.created.Load() }

// Deleted reports how many nodes have been torn down.
func (m *Manager) Deleted() uint64 { return m.nodes.deleted.Load() }

// Delete stops a node's tick loop, waits for it to drain, and removes it
// from the registry.
func (m *Manager) Delete(id string) error { return m.nodes.remove(id) }

// Close shuts the manager down gracefully: no new nodes or clusters are
// accepted, every tick loop is cancelled and drained, and all stream
// subscribers see their channels close. Close is idempotent.
func (m *Manager) Close() {
	m.nodes.close()
	m.clusters.close()
	m.cancel()
	m.wg.Wait()
	// Every producer has drained; closing the router flushes whatever the
	// sink queues still hold, in publish order, then closes the sinks.
	_ = m.router.Close()
}

// buildSession turns a NodeConfig into a live driver session, returning
// the normalized config and the resolved workload names.
func buildSession(cfg NodeConfig) (*driver.Session, NodeConfig, []string, error) {
	plat, err := platformByName(cfg.Platform)
	if err != nil {
		return nil, cfg, nil, err
	}
	if cfg.Platform == "" {
		cfg.Platform = "server"
	}
	if cfg.Thermal != nil {
		if plat.Thermal == nil {
			return nil, cfg, nil, fmt.Errorf("%w: platform %q has no thermal model to override", ErrBadConfig, cfg.Platform)
		}
		cfg.Thermal.apply(plat.Thermal)
		if err := plat.Validate(); err != nil {
			return nil, cfg, nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if cfg.ThermalGovernor && plat.Thermal == nil {
		return nil, cfg, nil, fmt.Errorf("%w: thermal governor needs a platform with a thermal model", ErrBadConfig)
	}
	if cfg.Technique == "" {
		cfg.Technique = "PUPiL"
	}
	ctrl, err := control.New(cfg.Technique, plat)
	if err != nil {
		return nil, cfg, nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	specs, err := resolveWorkloads(cfg, plat)
	if err != nil {
		return nil, cfg, nil, err
	}
	apps := make([]string, len(specs))
	for i, s := range specs {
		apps[i] = s.Profile.Name
	}
	sc := driver.Scenario{
		Platform:   plat,
		Specs:      specs,
		CapWatts:   cfg.CapWatts,
		Controller: ctrl,
		Seed:       cfg.Seed,
	}
	for _, f := range cfg.Faults {
		sc.Faults = append(sc.Faults, f.scenario())
	}
	if cfg.Watchdog {
		sc.Watchdog = driver.DefaultWatchdog()
	}
	if cfg.ThermalGovernor {
		sc.ThermalGovernor = driver.DefaultThermalGovernor()
	}
	sess, err := driver.NewSession(sc)
	if err != nil {
		return nil, cfg, nil, err
	}
	return sess, cfg, apps, nil
}

func platformByName(name string) (*machine.Platform, error) {
	switch strings.ToLower(name) {
	case "", "server", "default", "e5-2690":
		return machine.E52690Server(), nil
	case "mobile", "soc":
		return machine.MobileSoC(), nil
	case "thermal":
		return machine.E52690ThermalServer(), nil
	}
	return nil, fmt.Errorf("%w: unknown platform %q (want server, mobile, or thermal)", ErrBadConfig, name)
}

func resolveWorkloads(cfg NodeConfig, p *machine.Platform) ([]workload.Spec, error) {
	if cfg.Mix != "" && len(cfg.Workloads) > 0 {
		return nil, fmt.Errorf("%w: mix and workloads are mutually exclusive", ErrBadConfig)
	}
	if cfg.Mix != "" {
		m, err := workload.MixByName(cfg.Mix)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		profiles, err := m.Profiles()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		return workload.Specs(profiles, p.HWThreads()), nil
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("%w: node has no workloads (set mix or workloads)", ErrBadConfig)
	}
	specs := make([]workload.Spec, len(cfg.Workloads))
	for i, w := range cfg.Workloads {
		prof, err := workload.ByName(w.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		threads := w.Threads
		if threads <= 0 {
			threads = p.HWThreads()
		}
		specs[i] = workload.Spec{Profile: prof, Threads: threads}
	}
	return specs, nil
}
