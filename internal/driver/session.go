package driver

import (
	"context"
	"time"

	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/sim"
)

// Session is a resumable run: where Run executes a scenario to completion,
// a Session advances simulated time in increments and allows the node's
// power cap to change between increments — the primitive a cluster-level
// coordinator needs to shift budget between machines ("power capping: a
// prelude to power shifting").
type Session struct {
	scenario Scenario
	w        *world
	runner   *sim.Runner
	started  bool
}

// NewSession validates the scenario and builds the simulated node without
// advancing time. The scenario's Duration is ignored; callers advance
// explicitly.
func NewSession(s Scenario) (*Session, error) {
	w, runner, err := buildWorld(s)
	if err != nil {
		return nil, err
	}
	return &Session{scenario: s, w: w, runner: runner}, nil
}

// Now returns the session's simulated time.
func (s *Session) Now() time.Duration { return s.runner.Clock.Now() }

// Cap returns the node's current power cap.
func (s *Session) Cap() float64 { return s.w.capW }

// SetCap changes the node's power cap. The controller observes the new
// value through its environment on its next decision interval (controllers
// re-program hardware and, for large changes, re-explore).
func (s *Session) SetCap(watts float64) error {
	if err := ValidateCap(watts); err != nil {
		return err
	}
	s.w.capW = watts
	return nil
}

// Advance runs the node for d of simulated time.
func (s *Session) Advance(d time.Duration) {
	_ = s.AdvanceContext(context.Background(), d)
}

// AdvanceContext runs the node for d of simulated time, aborting between
// kernel ticks once ctx is cancelled and returning the context's error. The
// session remains valid after a cancelled advance: simulated time simply
// stops where the abort landed, and a later Advance resumes from there.
func (s *Session) AdvanceContext(ctx context.Context, d time.Duration) error {
	if !s.started {
		s.w.refresh(0)
		s.w.ctrl.Start(s.w)
		s.started = true
	}
	return s.runner.RunContext(ctx, d)
}

// GrowTraces preallocates the node's telemetry traces for d of further
// simulated time. Bounded runs size their traces up front (Run does this
// internally); a session has no horizon, so a caller that knows one — a
// benchmark harness stepping a fixed number of epochs — uses this to keep
// steady-state ticking free of trace reallocation.
func (s *Session) GrowTraces(d time.Duration) { s.w.growTraces(d) }

// Retain bounds what the session keeps to a trailing window of d of
// simulated time, for owners that never read the whole run: a served node
// or cluster member would otherwise keep every sample it ever took. The
// traces (true power, rates, spin, bandwidth and the sensor recordings)
// and the operating-point and configuration logs are compacted in place,
// dropping what is older than d before their newest entry.
//
// MeanPower and MeanRate over windows no longer than d return exactly what
// they would without retention, bit for bit; a longer window sees only the
// retained span, so an owner raises the retention before it reads further
// back. Result then covers only the retained span too: its traces, logs,
// settling, violation and steady-state figures describe the last d or so of
// the run, while its EnergyJ, FaultEvents and Degradations still cover the
// whole run, as Snapshot does. d <= 0 keeps everything again from now on.
func (s *Session) Retain(d time.Duration) { s.w.retain(d) }

// InjectFault schedules a fault at runtime: the scenario's onset is
// interpreted relative to the session's current simulated time (onset 0
// means "starting now"). The scenario is validated before scheduling.
func (s *Session) InjectFault(sc faults.Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	sc.Onset += s.Now()
	return s.w.faults.Schedule(sc)
}

// FaultScenarios returns every fault scheduled against this session, with
// onsets in absolute simulated time.
func (s *Session) FaultScenarios() faults.Profile { return s.w.faults.Scenarios() }

// FaultEvents returns the log of fault onsets and clearances so far.
func (s *Session) FaultEvents() []faults.Event { return s.w.faults.Events() }

// FaultsActive reports how many fault scenarios are in effect right now.
func (s *Session) FaultsActive() int { return s.w.faults.ActiveCount(s.Now()) }

// DegradeLevel returns the supervision ladder's current rung
// (DegradeNormal when the session has no watchdog).
func (s *Session) DegradeLevel() DegradeLevel {
	if s.w.dog == nil {
		return DegradeNormal
	}
	return s.w.dog.level
}

// Degradations returns the supervision transition log (empty without a
// watchdog).
func (s *Session) Degradations() []DegradeEvent {
	if s.w.dog == nil {
		return nil
	}
	return s.w.dog.eventsCopy()
}

// BreachSeconds is the running wall-clock time the node's true power has
// spent above cap*1.03 (after a 1 s startup grace).
func (s *Session) BreachSeconds() float64 {
	return float64(s.w.breachTicks) * sensorPeriod.Seconds()
}

// Power returns the node's current true power draw.
func (s *Session) Power() float64 {
	if s.w.evalStale {
		s.w.refresh(s.Now())
	}
	return s.w.eval.PowerTotal
}

// Rates returns the node's current per-application work rates.
func (s *Session) Rates() []float64 {
	if s.w.evalStale {
		s.w.refresh(s.Now())
	}
	return append([]float64(nil), s.w.eval.Rates...)
}

// ZonePower is one RAPL-style power zone reading: the package total for a
// socket, or one of its core/dram components. Zone names follow the RAPL
// sysfs taxonomy: "package_0", "package_0_core", "package_0_dram".
type ZonePower struct {
	// Zone is the zone label.
	Zone string `json:"zone"`
	// PowerWatts is the zone's modeled power draw.
	PowerWatts float64 `json:"power_watts"`
	// CapWatts is the RAPL cap programmed for the zone (package zones
	// only; zero when uncapped or not applicable to the subzone).
	CapWatts float64 `json:"cap_watts,omitempty"`
}

// SocketTherm is one socket's live thermal state: the junction
// temperature of a package zone, whether the hardware protection is
// clock-throttling it, and the thermal-headroom governor's engagement and
// cap multiplier for it.
type SocketTherm struct {
	// Zone is the package zone label ("package_0").
	Zone string `json:"zone"`
	// TempC is the junction temperature.
	TempC float64 `json:"temp_c"`
	// Throttled reports the package protection's ThrottleDuty clock
	// modulation being active.
	Throttled bool `json:"throttled,omitempty"`
	// Governed reports the thermal-headroom governor being engaged on
	// this socket; CapScale is its cap multiplier (1 when unengaged or no
	// governor is armed).
	Governed bool    `json:"governed,omitempty"`
	CapScale float64 `json:"cap_scale"`
}

// MeanPower returns the node's mean true power over the trailing window.
func (s *Session) MeanPower(window time.Duration) float64 {
	from := s.Now() - window
	if from < 0 {
		from = 0
	}
	return s.w.truePower.MeanBetween(from, s.Now()+1)
}

// MeanRate returns the node's mean aggregate rate over the trailing window.
func (s *Session) MeanRate(window time.Duration) float64 {
	from := s.Now() - window
	if from < 0 {
		from = 0
	}
	total := 0.0
	for _, tr := range s.w.rateTrace {
		total += tr.MeanBetween(from, s.Now()+1)
	}
	return total
}

// Snapshot is an instantaneous, copyable view of a session — the
// introspection hook a serving layer reads between Advances without
// reaching into the simulated world.
type Snapshot struct {
	// Now is the session's simulated time.
	Now time.Duration
	// CapWatts is the cap currently being enforced.
	CapWatts float64
	// PowerWatts is the node's current true power draw.
	PowerWatts float64
	// Rates are the current per-application true work rates.
	Rates []float64
	// Config is the active hardware configuration (software configuration
	// merged with firmware-owned operating points).
	Config machine.Config
	// EnergyJ is total energy consumed so far.
	EnergyJ float64
	// Apps names the running applications, in launch order.
	Apps []string
	// Zones are the per-socket RAPL-style zone readings (package total
	// with its programmed cap, then core and dram components).
	Zones []ZonePower
	// Thermal is the live per-socket thermal state (nil on platforms
	// without a thermal model).
	Thermal []SocketTherm
	// BreachSeconds is the running time spent above cap*1.03.
	BreachSeconds float64
	// FaultsActive counts fault scenarios currently in effect.
	FaultsActive int
	// DegradeLevel names the supervision rung ("normal" without a
	// watchdog); Degradations counts supervision transitions so far.
	DegradeLevel string
	Degradations int
}

// TotalRate sums the snapshot's per-application rates.
func (sn Snapshot) TotalRate() float64 {
	t := 0.0
	for _, r := range sn.Rates {
		t += r
	}
	return t
}

// Snapshot captures the session's current state.
func (s *Session) Snapshot() Snapshot {
	if s.w.evalStale {
		s.w.refresh(s.Now())
	}
	apps := make([]string, len(s.w.apps))
	for i, a := range s.w.apps {
		apps[i] = a.Profile.Name
	}
	sn := Snapshot{
		Now:           s.Now(),
		CapWatts:      s.w.capW,
		PowerWatts:    s.w.eval.PowerTotal,
		Rates:         append([]float64(nil), s.w.eval.Rates...),
		Config:        s.w.active.Clone(),
		EnergyJ:       s.w.energyJ,
		Apps:          apps,
		Zones:         s.w.zonePowers(make([]ZonePower, 0, 3*s.w.plat.Sockets)),
		BreachSeconds: s.BreachSeconds(),
		FaultsActive:  s.FaultsActive(),
		DegradeLevel:  s.DegradeLevel().String(),
	}
	if len(s.w.tempC) > 0 {
		sn.Thermal = s.w.thermals(make([]SocketTherm, 0, len(s.w.tempC)))
	}
	if s.w.dog != nil {
		sn.Degradations = len(s.w.dog.events)
	}
	return sn
}

// Result assembles metrics over everything simulated so far, as Run would.
func (s *Session) Result() Result {
	sc := s.scenario
	sc.Duration = s.Now()
	return s.w.result(sc)
}
