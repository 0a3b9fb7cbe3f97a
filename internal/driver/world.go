package driver

import (
	"math"
	"slices"
	"strconv"
	"time"

	"pupil/internal/core"
	"pupil/internal/faults"
	"pupil/internal/heartbeat"
	"pupil/internal/machine"
	"pupil/internal/metrics"
	"pupil/internal/rapl"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/telemetry"
	"pupil/internal/workload"
)

// world is the simulated machine with its workload: it implements
// sim.World (physics integration), core.Env (the controller's view) and
// rapl.Actuator (the firmware's view).
type world struct {
	plat   *machine.Platform
	apps   []*workload.Instance
	capW   float64
	clock  *sim.Clock
	noRAPL bool

	// softCfg is what the controller last requested; active is what the
	// hardware currently runs (software config merged with the
	// firmware-owned per-socket operating points).
	softCfg machine.Config
	active  machine.Config
	hwOwned bool
	pending []pendingCfg

	firmwares  []*rapl.Firmware
	raplWindow time.Duration // healthy averaging window (misprogramming baseline)
	lastCapReq []float64     // last requested cap distribution, pre-corruption

	// Fault injection and supervision (always present; both are inert
	// pass-throughs when the scenario declares no faults and no watchdog).
	faults      *faults.Injector
	dog         *watchdog
	ctrl        core.Controller
	breachTicks int // sensor-period ticks with true power above cap*1.03

	evaluator *system.Evaluator
	// reader evaluates the hardware configuration for a read that finds
	// the eval stale (see current); nil until the first such read.
	reader *system.Evaluator
	// eval is the world's own result: refresh evaluates into it in place.
	// Its slices alias the evaluator's buffers.
	eval      system.Eval
	evalCfg   machine.Config // configuration the current eval was computed under
	evalStale bool
	lastEval  time.Duration
	// phased marks an application whose rate has a workload phase, the
	// eval's only input that moves with time alone.
	phased  bool
	energyJ float64

	// tickS is tickDt in seconds, converted once per tick length rather
	// than per application per tick.
	tickDt time.Duration
	tickS  float64

	// zoneNames are the per-socket RAPL-style zone labels (package_<s>,
	// package_<s>_core, package_<s>_dram), precomputed so the zone report
	// on the serving hot path never formats strings.
	zoneNames [][3]string

	// Thermal state (when the platform models it): per-socket junction
	// temperature and whether the package protection is throttling.
	tempC         []float64
	throttling    []bool
	maxTempC      float64
	throttleTicks int
	totalTicks    int
	// evalTempQ is the quantized temperature vector the current eval was
	// computed at; when leakage makes power temperature-dependent, a
	// quantization-cell crossing marks the eval stale, closing the
	// power→temp→leakage→power loop one relaxation sweep per tick.
	evalTempQ []float64
	// thermK caches 1−exp(−dt/τ) for the current tick length, so the
	// integration hot path pays one Exp per dt change, not per tick.
	thermK float64

	// Thermal-headroom governor state (nil slices when no governor): the
	// per-socket cap multiplier applied inside applyCaps, engagement
	// latches, and time accounting. govOwns marks cap registers the
	// governor programmed itself (no software distribution existed), so
	// release can return them to zero instead of stranding a cap.
	govScale      []float64
	govEngaged    []bool
	govOwns       bool
	govTicks      int
	govTotalTicks int

	powerSensor *telemetry.Sensor
	perfSensor  *telemetry.Sensor
	heartbeats  []*heartbeat.Monitor
	perfWeights []float64

	pendingAff  []pendingAffinity
	pendingCaps []pendingCap

	truePower   *sim.Series
	rateTrace   []*sim.Series // per-app true rates
	spinTrace   *sim.Series
	bwTrace     *sim.Series
	rawFeedback bool

	configLog []ConfigEvent
	opLog     []OpEvent
	// keep is the trailing window a retained session holds on to (<= 0:
	// the whole run); see Session.Retain.
	keep time.Duration
}

// OpEvent records a firmware operating-point change.
type OpEvent struct {
	T       time.Duration
	Socket  int
	FreqIdx int
	Duty    float64
}

// ConfigEvent records one software configuration taking effect.
type ConfigEvent struct {
	T   time.Duration
	Cfg machine.Config
}

func (e OpEvent) at() time.Duration     { return e.T }
func (e ConfigEvent) at() time.Duration { return e.T }

type pendingCfg struct {
	at  time.Duration
	cfg machine.Config
}

type pendingAffinity struct {
	at     time.Duration
	limits []int
}

type pendingCap struct {
	at    time.Duration
	watts []float64
}

func newWorld(s Scenario, apps []*workload.Instance, rng *sim.RNG) *world {
	w := &world{
		plat:        s.Platform,
		apps:        apps,
		capW:        s.CapWatts,
		noRAPL:      s.NoRAPL,
		softCfg:     machine.MaxConfig(s.Platform),
		active:      machine.MaxConfig(s.Platform),
		perfWeights: s.PerfWeights,
		truePower:   sim.NewSeries("true_power_w"),
		spinTrace:   sim.NewSeries("spin_frac"),
		bwTrace:     sim.NewSeries("mem_bw_gbs"),
		rawFeedback: s.RawFeedback,
	}
	w.evaluator = system.NewEvaluator(s.Platform, apps)
	w.evalCfg = w.active
	w.phased = anyPhased(apps)
	w.zoneNames = zoneLabels(s.Platform.Sockets)
	for i := range apps {
		w.rateTrace = append(w.rateTrace, sim.NewSeries(apps[i].Profile.Name))
		// Applications report progress through the heartbeat interface
		// (Section 3.1.1).
		w.heartbeats = append(w.heartbeats, heartbeat.NewMonitor(apps[i].Profile.Name, heartbeatRetention))
	}

	// The injector is always built — an empty profile makes every hook the
	// identity — from a dedicated fork, so scheduling faults never perturbs
	// the rest of the simulation's randomness.
	w.faults = faults.NewInjector(s.Faults, rng.Fork("faults"))

	powerNoise, perfNoise := telemetry.DefaultPowerNoise(), telemetry.DefaultPerfNoise()
	if s.PerfNoise != nil {
		perfNoise = *s.PerfNoise
	}
	if s.NoNoise {
		powerNoise, perfNoise = telemetry.NoiseSpec{}, telemetry.NoiseSpec{}
	}
	// Windows must hold the largest measurement window a controller may
	// request (Soft-Decision uses 4 s at a 10 ms sampling period).
	const windowLen = 1024
	w.powerSensor = telemetry.NewSensor("power", func() float64 { return w.eval.PowerTotal },
		sensorPeriod, windowLen, powerNoise, rng.Fork("power-sensor"))
	w.powerSensor.Record(sim.NewSeries("power_w"))
	w.powerSensor.SetTap(w.faults.SensorTap(faults.TargetPowerSensor, w.powerSensor.Window()))
	w.perfSensor = telemetry.NewSensor("perf", w.perfSignal,
		sensorPeriod, windowLen, perfNoise, rng.Fork("perf-sensor"))
	w.perfSensor.Record(sim.NewSeries("perf"))
	w.perfSensor.SetTap(w.faults.SensorTap(faults.TargetPerfSensor, w.perfSensor.Window()))

	if !s.NoRAPL {
		raplCfg := rapl.DefaultConfig()
		w.raplWindow = raplCfg.Window
		// The firmware reads its power estimates through the injector so
		// rapl-power faults corrupt what the hardware control loop sees.
		act := w.faults.WrapActuator(w, s.Platform.Sockets)
		for sock := 0; sock < s.Platform.Sockets; sock++ {
			w.firmwares = append(w.firmwares, rapl.NewFirmware(
				s.Platform, sock, act, raplCfg,
				rng.Fork("rapl"+string(rune('0'+sock)))))
		}
	}
	if th := s.Platform.Thermal; th != nil {
		w.tempC = make([]float64, s.Platform.Sockets)
		w.throttling = make([]bool, s.Platform.Sockets)
		w.evalTempQ = make([]float64, s.Platform.Sockets)
		for i := range w.tempC {
			w.tempC[i] = th.AmbientC
		}
		w.maxTempC = th.AmbientC
	}
	return w
}

// growTraces preallocates every per-run trace for d of simulated time
// (samples accrue once per sensor period), so a bounded run's steady-state
// ticking never reallocates telemetry storage. The event logs grow by use:
// most runs log a few dozen events, far below the logs' caps.
func (w *world) growTraces(d time.Duration) {
	n := int(d/sensorPeriod) + 2
	w.eachTrace(func(tr *sim.Series) { tr.Grow(n) })
}

// retain bounds every trace and both event logs to the trailing window d;
// see Session.Retain.
func (w *world) retain(d time.Duration) {
	w.keep = d
	w.eachTrace(func(tr *sim.Series) { tr.Retain(d) })
}

// eachTrace calls fn on every per-run trace: true power, spin, bandwidth,
// the per-application rates and the two sensor recordings.
func (w *world) eachTrace(fn func(*sim.Series)) {
	fn(w.truePower)
	fn(w.spinTrace)
	fn(w.bwTrace)
	for _, tr := range w.rateTrace {
		fn(tr)
	}
	fn(w.powerSensor.Trace())
	fn(w.perfSensor.Trace())
}

// heartbeatRetention is how many reports each application's heartbeat
// monitor keeps. Its only reader, appSignal, asks for the trailing sensor
// period, which holds one 10 ms report; 64 reports (640 ms, 1 KB per
// application) cover that window with ample slack. A longer history would
// cost every session memory that nothing reads.
const heartbeatRetention = 64

// appSignal is one application's heartbeat rate over the last reporting
// interval, normalized by its isolated rate when weights are configured.
func (w *world) appSignal(i int) float64 {
	if i >= len(w.heartbeats) {
		return 0
	}
	now := w.now()
	r := w.heartbeats[i].Rate(now-sensorPeriod, now)
	if len(w.perfWeights) == len(w.heartbeats) && w.perfWeights[i] > 0 {
		r /= w.perfWeights[i]
	}
	return r
}

// perfSignal is the aggregate heartbeat rate: each app's heartbeat rate,
// optionally normalized by its isolated rate.
func (w *world) perfSignal() float64 {
	sum := 0.0
	for i := range w.heartbeats {
		sum += w.appSignal(i)
	}
	return sum
}

// refresh recomputes ground truth at time now.
func (w *world) refresh(now time.Duration) {
	cfg := w.hardwareConfig()
	w.evaluator.EvalInto(&w.eval, cfg, now, w.tempC)
	for s := range w.evalTempQ {
		w.evalTempQ[s] = system.QuantizeTempC(w.tempC[s])
	}
	w.evalCfg = cfg
	w.evalStale = false
	w.lastEval = now
}

// hardwareConfig is the configuration the hardware runs: the active one
// with the package thermal protection's clock modulation applied.
func (w *world) hardwareConfig() machine.Config {
	th := w.plat.Thermal
	if th == nil || !slices.Contains(w.throttling, true) {
		return w.active
	}
	cfg := w.active.Clone()
	for s := range cfg.Duty {
		if w.throttling[s] {
			cfg.Duty[s] *= th.ThrottleDuty
		}
	}
	return cfg
}

// current returns the eval and configuration a read of the session
// reports. A fresh kernel eval is reported as it is. A stale one is left
// for the kernel's next step to refresh: refreshing it at the read would
// move the kernel's refresh schedule and change what the session goes on
// to simulate. The hardware configuration is evaluated into dst instead,
// on a second evaluator that the first such read builds.
func (w *world) current(dst *system.Eval) (*system.Eval, machine.Config) {
	if !w.evalStale {
		return &w.eval, w.evalCfg
	}
	if w.reader == nil {
		w.reader = system.NewEvaluator(w.plat, w.apps)
	}
	cfg := w.hardwareConfig()
	w.reader.EvalInto(dst, cfg, w.now(), w.tempC)
	return dst, cfg
}

// periodicRefresh is the refresh rule at each evalPeriod for an eval that
// is not stale. Every writer of the active configuration (adopt, the
// firmware's operating point, thermal throttling) and every change to an
// application's behaviour marks the eval stale, and Step refreshes a stale
// eval at once. Otherwise the model's inputs move only with a workload
// phase or with a junction temperature crossing a quantization cell:
// without either, re-running the model would reproduce the eval bit for
// bit, so only the period's anchor moves.
func (w *world) periodicRefresh(now time.Duration) {
	if w.phased || w.tempCellMoved() {
		w.refresh(now)
		return
	}
	w.lastEval = now
}

// tempCellMoved reports whether a socket's junction temperature has left
// the quantization cell the current eval was computed at.
func (w *world) tempCellMoved() bool {
	for s, q := range w.evalTempQ {
		if system.QuantizeTempC(w.tempC[s]) != q {
			return true
		}
	}
	return false
}

// appChanged drops the evaluator's cached terms and the current eval after
// an application changed behaviour outside a configuration change (a
// profile shift, an affinity limit): both feed the cached placement,
// speedup and spin terms.
func (w *world) appChanged() {
	w.evaluator.Invalidate()
	if w.reader != nil {
		w.reader.Invalidate()
	}
	w.evalStale = true
	w.phased = anyPhased(w.apps)
}

// anyPhased reports whether any application's rate has a workload phase.
func anyPhased(apps []*workload.Instance) bool {
	for _, a := range apps {
		if a.Profile.PhaseAmp != 0 {
			return true
		}
	}
	return false
}

// zonePowers appends the node's RAPL-style zone readings under ev, an
// eval of cfg, to buf: per socket, the package total (with the firmware's
// programmed cap), then the core and dram components.
func (w *world) zonePowers(buf []ZonePower, ev *system.Eval, cfg machine.Config) []ZonePower {
	for s := 0; s < w.plat.Sockets; s++ {
		var load machine.SocketLoad
		if s < len(ev.Loads) {
			load = ev.Loads[s]
		}
		bd := w.plat.SocketPowerBreakdown(cfg, s, load)
		capW := 0.0
		if s < len(w.firmwares) {
			capW = w.firmwares[s].Cap()
		}
		buf = append(buf,
			ZonePower{Zone: w.zoneNames[s][0], PowerWatts: bd.TotalW, CapWatts: capW},
			ZonePower{Zone: w.zoneNames[s][1], PowerWatts: bd.CoreW},
			ZonePower{Zone: w.zoneNames[s][2], PowerWatts: bd.DramW})
	}
	return buf
}

// thermals appends the node's live per-socket thermal state to buf: the
// junction temperature, whether the package protection is clock-chopping,
// and the thermal-headroom governor's engagement and cap scale. Empty on
// platforms without a thermal model.
func (w *world) thermals(buf []SocketTherm) []SocketTherm {
	for s := range w.tempC {
		st := SocketTherm{
			Zone:      w.zoneNames[s][0],
			TempC:     w.tempC[s],
			Throttled: w.throttling[s],
			CapScale:  1,
		}
		if s < len(w.govScale) {
			st.Governed = w.govEngaged[s]
			st.CapScale = w.govScale[s]
		}
		buf = append(buf, st)
	}
	return buf
}

// zoneTable holds the zone labels of the first eight sockets, formatted
// once so that building a session formats no strings. Sessions share its
// rows read-only.
var zoneTable = buildZoneLabels(8)

// zoneLabels returns the zone labels of sockets 0..n-1.
func zoneLabels(n int) [][3]string {
	if n <= len(zoneTable) {
		return zoneTable[:n:n]
	}
	return buildZoneLabels(n)
}

// buildZoneLabels formats package_<s>, package_<s>_core and
// package_<s>_dram for sockets 0..n-1.
func buildZoneLabels(n int) [][3]string {
	out := make([][3]string, n)
	for s := range out {
		pkg := "package_" + strconv.Itoa(s)
		out[s] = [3]string{pkg, pkg + "_core", pkg + "_dram"}
	}
	return out
}

// stepThermal integrates the per-socket RC junction model and drives the
// throttle hysteresis.
func (w *world) stepThermal() {
	th := w.plat.Thermal
	if th == nil {
		return
	}
	w.totalTicks++
	// Exact exponential step of dT/dt = (P − (T − Tamb)/Rth)/Cth with P
	// held over the tick: T relaxes toward Tss = Tamb + P·Rth by a factor
	// 1 − exp(−dt/τ), τ = Rth·Cth (thermK, cached per tick length).
	// Unconditionally stable and monotone at any tick length — the
	// forward-Euler update this replaces left the unit circle at dt ≥ τ and
	// oscillated to absurd temperatures on coarse-tick sessions.
	tempC, throttling, power := w.tempC, w.throttling, w.eval.PowerSocket
	k, maxT := w.thermK, w.maxTempC
	throttlingNow := false
	for s := range tempC {
		p := 0.0
		if s < len(power) {
			p = power[s]
		}
		tss := th.AmbientC + p*th.RthCPerW
		t := tempC[s] + (tss-tempC[s])*k
		tempC[s] = t
		if t > maxT {
			maxT = t
		}
		if t >= th.TjMaxC {
			if !throttling[s] {
				throttling[s] = true
				w.evalStale = true
			}
		} else if throttling[s] && t < th.TjMaxC-th.HysteresisC {
			throttling[s] = false
			w.evalStale = true
		}
		throttlingNow = throttlingNow || throttling[s]
	}
	w.maxTempC = maxT
	if throttlingNow {
		w.throttleTicks++
	}
	// With temperature-dependent leakage the eval's power is a function of
	// T: crossing a quantization cell invalidates it, so the next consumer
	// (sensor, firmware, controller) sees power at the new temperature.
	// This is the per-tick relaxation sweep of the power→temp→leakage→power
	// fixed point; the TDP clamp bounds it and quantization keeps it from
	// re-evaluating on sub-cell drift. Leakage-free platforms take no new
	// staleness: their temperature reaches the eval's socket loads through
	// the periodic refresh rule.
	if w.plat.Leakage != nil && w.tempCellMoved() {
		w.evalStale = true
	}
}

// setTick caches the per-tick-length conversions: the tick in seconds and
// the thermal relaxation factor, so the hot path pays one conversion and
// one Exp per change of tick length, not per tick.
func (w *world) setTick(dt time.Duration) {
	w.tickDt = dt
	w.tickS = dt.Seconds()
	if th := w.plat.Thermal; th != nil {
		w.thermK = 1 - math.Exp(-w.tickS/(th.RthCPerW*th.CthJPerC))
	}
}

// Step implements sim.World.
func (w *world) Step(now, dt time.Duration) {
	// Apply software configurations whose actuation delay has elapsed.
	for len(w.pending) > 0 && w.pending[0].at <= now {
		w.adopt(w.pending[0].cfg)
		w.pending = w.pending[1:]
	}
	for len(w.pendingCaps) > 0 && w.pendingCaps[0].at <= now {
		pc := w.pendingCaps[0]
		w.pendingCaps = w.pendingCaps[1:]
		w.applyCaps(now, pc.watts)
	}
	for len(w.pendingAff) > 0 && w.pendingAff[0].at <= now {
		limits := w.pendingAff[0].limits
		for i, a := range w.apps {
			if i < len(limits) {
				a.AffinityCores = limits[i]
			}
		}
		w.pendingAff = w.pendingAff[1:]
		w.appChanged()
	}
	for _, a := range w.apps {
		if a.MaybeShift(now) {
			w.appChanged()
		}
	}
	if w.evalStale {
		w.refresh(now)
	} else if now-w.lastEval >= evalPeriod {
		w.periodicRefresh(now)
	}
	if dt != w.tickDt {
		w.setTick(dt)
	}
	for i, a := range w.apps {
		a.Advance(w.eval.Rates[i], w.tickS)
	}
	w.energyJ += w.eval.PowerTotal * w.tickS
	w.stepThermal()
	if now%sensorPeriod == 0 {
		// Each application emits a heartbeat covering the progress it
		// made since the last report.
		for i, hb := range w.heartbeats {
			n := w.apps[i].Progress - hb.Total()
			if n < 0 {
				n = 0
			}
			_ = hb.Beat(now, n)
		}
		if now > time.Second && w.eval.PowerTotal > w.capW*1.03 {
			w.breachTicks++
		}
		w.truePower.Add(now, w.eval.PowerTotal)
		w.spinTrace.Add(now, w.eval.SpinFrac)
		w.bwTrace.Add(now, w.eval.MemBWGBs)
		for i := range w.apps {
			w.rateTrace[i].Add(now, w.eval.Rates[i])
		}
	}
}

// adopt makes cfg the active software configuration, preserving the
// firmware-owned per-socket operating points when hardware capping is
// engaged.
func (w *world) adopt(cfg machine.Config) {
	next := cfg.Normalize(w.plat)
	if w.hwOwned {
		for s, fw := range w.firmwares {
			if fw.Cap() > 0 {
				fi, duty := fw.OperatingPoint()
				next.Freq[s] = fi
				next.Duty[s] = duty
			}
		}
	}
	w.active = next
	w.evalStale = true
	w.configLog = boundLog(w.configLog, configLogCap, w.now(), w.keep)
	w.configLog = append(w.configLog, ConfigEvent{T: w.now(), Cfg: cfg.Clone()})
}

// Event logs are bounded: a run of any plausible duration stays far under
// the caps, but a perpetual session — a pupild node or cluster member —
// would otherwise grow its logs, and the allocation churn of doubling
// them, without limit. When a log fills, the oldest half is dropped in
// place so steady-state appends reuse a fixed backing array.
const (
	opLogCap     = 4096
	configLogCap = 1024
)

// boundLog makes room in log, in place, before an append at now. A
// retained session (keep > 0) whose backing array is full drops the events
// older than keep before now once they are at least half of it, as a
// retained sim.Series does; every log then drops its oldest half once it
// reaches max, the backstop for a burst of events inside the window.
func boundLog[E interface{ at() time.Duration }](log []E, max int, now, keep time.Duration) []E {
	if keep > 0 && len(log) == cap(log) {
		old := 0
		for old < len(log) && log[old].at() < now-keep {
			old++
		}
		if 2*old >= len(log) {
			log = log[:copy(log, log[old:])]
		}
	}
	if len(log) < max {
		return log
	}
	n := copy(log, log[len(log)-max/2:])
	return log[:n]
}

// --- core.Env ---

// Now implements core.Env.
func (w *world) Now() time.Duration { return w.clock.Now() }

// CapWatts implements core.Env.
func (w *world) CapWatts() float64 { return w.capW }

// Platform implements core.Env.
func (w *world) Platform() *machine.Platform { return w.plat }

// Config implements core.Env.
func (w *world) Config() machine.Config { return w.softCfg.Clone() }

// RAPLSupported implements core.Env.
func (w *world) RAPLSupported() bool { return !w.noRAPL }

// SetConfig implements core.Env: the new configuration takes effect after
// the slowest changed resource's actuation delay (thread migration, NUMA
// page migration, p-state write).
func (w *world) SetConfig(cfg machine.Config) time.Duration {
	cfg = cfg.Normalize(w.plat)
	applied, extra, ok := w.faults.FilterConfig(w.now(), w.softCfg, cfg)
	if !ok {
		// The request is silently swallowed before reaching the platform:
		// the caller sees a plausible ready time and nothing changes, so a
		// later retry (the watchdog's floor, a controller re-walk) still
		// goes through once the fault clears.
		return w.now() + w.actuationDelay(w.softCfg, cfg)
	}
	cfg = applied.Normalize(w.plat)
	delay := w.actuationDelay(w.softCfg, cfg) + extra
	w.softCfg = cfg
	at := w.now() + delay
	// Pending changes apply in request order; a request is never
	// reordered before an earlier one.
	if n := len(w.pending); n > 0 && at < w.pending[n-1].at {
		at = w.pending[n-1].at
	}
	w.pending = append(w.pending, pendingCfg{at: at, cfg: cfg})
	return at
}

func (w *world) now() time.Duration {
	if w.clock == nil {
		return 0
	}
	return w.clock.Now()
}

// actuationDelay maps a configuration change to its observable-effect
// latency.
func (w *world) actuationDelay(old, next machine.Config) time.Duration {
	d := time.Duration(0)
	bump := func(v time.Duration) {
		if v > d {
			d = v
		}
	}
	if old.Cores != next.Cores || old.Sockets != next.Sockets || old.HT != next.HT {
		bump(500 * time.Millisecond) // taskset-style thread migration
	}
	if old.MemCtls != next.MemCtls {
		bump(2 * time.Second) // numactl policy change + page migration
	}
	for s := range next.Freq {
		if s < len(old.Freq) && old.Freq[s] != next.Freq[s] {
			bump(10 * time.Millisecond) // cpufrequtils p-state write
		}
	}
	return d
}

// SetRAPL implements core.Env: program (or disable) the per-socket
// hardware caps. Any distribution a controller sends sums to the machine
// cap, so switching the whole vector atomically keeps the total enforced at
// all times. A redistribution that accompanies a configuration change is
// deferred until that configuration lands: applying it early would give a
// socket a share its current load cannot reach (idle sockets given the
// budget early open their throttle and burst when threads arrive; loaded
// sockets capped below their floor push the total above the cap). The
// first engagement applies immediately — timeliness — as does any call with
// no configuration change in flight.
func (w *world) SetRAPL(perSocket []float64) {
	if w.noRAPL {
		return
	}
	now := w.now()
	if len(perSocket) == 0 {
		for _, fw := range w.firmwares {
			fw.SetCap(now, 0)
		}
		w.pendingCaps = nil
		w.lastCapReq = nil
		w.hwOwned = false
		w.govOwns = false
		return
	}
	// Software takes over the cap registers: from here the governor scales
	// the software distribution instead of owning registers outright.
	w.govOwns = false
	engaged := false
	for _, fw := range w.firmwares {
		if fw.Cap() > 0 {
			engaged = true
		}
	}
	w.hwOwned = true
	at := now
	if engaged && len(w.pending) > 0 {
		at = w.pending[len(w.pending)-1].at
	}
	// A newer distribution supersedes any deferred one.
	w.pendingCaps = nil
	if at <= now {
		w.applyCaps(now, perSocket)
		return
	}
	w.pendingCaps = append(w.pendingCaps, pendingCap{at: at, watts: append([]float64(nil), perSocket...)})
}

// applyCaps programs every firmware from the distribution vector. The
// requested distribution is remembered pre-corruption so a register repair
// (fault clearing) can restore what software intended; the write itself
// passes through the misprogramming filter. The thermal-headroom
// governor's per-socket scale multiplies every write, so any cap path —
// controller distribution, watchdog floor, deferred redistribution,
// register repair — is tightened while a socket is short on headroom.
func (w *world) applyCaps(now time.Duration, perSocket []float64) {
	w.lastCapReq = append(w.lastCapReq[:0], perSocket...)
	for s, fw := range w.firmwares {
		c := 0.0
		if s < len(perSocket) {
			c = perSocket[s]
		}
		if s < len(w.govScale) {
			c *= w.govScale[s]
		}
		fw.SetCap(now, w.faults.FilterRAPLCap(now, c))
	}
}

// Feedback implements core.Env: 3-sigma-filtered means over the trailing
// window.
func (w *world) Feedback(window time.Duration) core.Feedback {
	since := w.now() - window
	if since < 0 {
		since = 0
	}
	if w.rawFeedback {
		perf, n := rawMean(w.perfSensor.Window().Since(since))
		power, _ := rawMean(w.powerSensor.Window().Since(since))
		return core.Feedback{Perf: perf, Power: power, Samples: n}
	}
	perf, n := w.perfSensor.Window().FilteredMean(since)
	power, _ := w.powerSensor.Window().FilteredMean(since)
	return core.Feedback{Perf: perf, Power: power, Samples: n}
}

// Apps implements core.AffinityEnv.
func (w *world) Apps() int { return len(w.apps) }

// SetAffinity implements core.AffinityEnv: per-application core limits take
// effect after thread-migration latency.
func (w *world) SetAffinity(limits []int) time.Duration {
	at := w.now() + 500*time.Millisecond
	if n := len(w.pendingAff); n > 0 && at < w.pendingAff[n-1].at {
		at = w.pendingAff[n-1].at
	}
	w.pendingAff = append(w.pendingAff, pendingAffinity{at: at, limits: append([]int(nil), limits...)})
	return at
}

// --- rapl.Actuator ---

// SocketPower implements rapl.Actuator with the true per-socket power (the
// firmware's estimator perturbs it itself).
func (w *world) SocketPower(socket int) float64 {
	if w.evalStale {
		w.refresh(w.now())
	}
	if socket >= len(w.eval.PowerSocket) {
		return 0
	}
	return w.eval.PowerSocket[socket]
}

// SetOperatingPoint implements rapl.Actuator: the firmware adjusts its
// socket's speed directly in hardware.
func (w *world) SetOperatingPoint(socket int, freqIdx int, duty float64) {
	if socket >= len(w.active.Freq) {
		return
	}
	if w.active.Freq[socket] == freqIdx && w.active.Duty[socket] == duty {
		return
	}
	if w.active.Freq[socket] != freqIdx || abs(w.active.Duty[socket]-duty) >= 0.049 {
		w.opLog = boundLog(w.opLog, opLogCap, w.now(), w.keep)
		w.opLog = append(w.opLog, OpEvent{T: w.now(), Socket: socket, FreqIdx: freqIdx, Duty: duty})
	}
	w.active.Freq[socket] = freqIdx
	w.active.Duty[socket] = duty
	w.evalStale = true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// result assembles the run's outcome.
func (w *world) result(s Scenario) Result {
	res := Result{
		PowerTrace:  powerTraceOf(w.powerSensor),
		PerfTrace:   powerTraceOf(w.perfSensor),
		TruePower:   w.truePower,
		EnergyJ:     w.energyJ,
		FinalConfig: w.softCfg.Clone(),
		// The live eval aliases the evaluator's reusable buffers; the
		// result must survive further stepping.
		FinalEval: w.eval.Clone(),
		ConfigLog: w.configLog,
		OpLog:     w.opLog,
		SpinTrace: w.spinTrace,
		BWTrace:   w.bwTrace,
		MaxTempC:  w.maxTempC,
	}
	if w.totalTicks > 0 {
		res.ThermalThrottleFrac = float64(w.throttleTicks) / float64(w.totalTicks)
	}
	if w.govTotalTicks > 0 {
		res.ThermalGovernedFrac = float64(w.govTicks) / float64(w.govTotalTicks)
	}
	res.FinalTempsC = append([]float64(nil), w.tempC...)
	// Enforcement is judged on a 400 ms-averaged trace: RAPL's contract
	// is an energy budget per averaging window (the firmware legitimately
	// alternates operating points within it), and physical power meters
	// integrate over comparable spans. A sliding mean much shorter than
	// the firmware window would misread legal rung-alternation as
	// violation on platforms whose p-state granularity is coarse relative
	// to the cap.
	smoothed := metrics.Smooth(w.truePower, 400*time.Millisecond)
	res.Settling, res.Settled = metrics.SettlingTime(smoothed, metrics.DefaultSettling(s.CapWatts))

	// Cap violations after a 1 s grace period (startup transient),
	// judged on a longer integration window: the firmware's contract is
	// energy per averaging window (bursts are compensated within it), and
	// physical meters integrate over comparable spans.
	violations, total := 0, 0
	for _, sm := range smoothed.Between(time.Second, s.Duration+1) {
		total++
		if sm.V > s.CapWatts*1.03 {
			violations++
		}
	}
	if total > 0 {
		res.ViolationFrac = float64(violations) / float64(total)
	}
	// Breach time integrates the same judged samples into wall-clock
	// seconds spent over the cap — the robustness headline metric.
	res.BreachSeconds = float64(violations) * sensorPeriod.Seconds()

	// Performance convergence (the efficiency half of Fig. 1): judged on
	// the smoothed true aggregate rate, summed per sample on the fly and
	// smoothed into the power's scratch series, which is spent.
	metrics.SmoothSum(smoothed, w.truePower, w.rateTrace, 400*time.Millisecond)
	res.PerfConvergence, res.PerfConverged = metrics.ConvergenceTime(smoothed, 0.05, steadyTail)

	tail := time.Duration(float64(s.Duration) * (1 - steadyTail))
	res.SteadyRates = make([]float64, len(w.apps))
	for i, tr := range w.rateTrace {
		res.SteadyRates[i] = tr.MeanBetween(tail, s.Duration+1)
	}
	res.SteadyPower = w.truePower.MeanBetween(tail, s.Duration+1)
	res.FaultEvents = w.faults.Events()
	if w.dog != nil {
		res.Degradations = w.dog.eventsCopy()
		res.FinalDegradeLevel = w.dog.level
		res.ControllerPanics = w.dog.panics
	}
	return res
}

// powerTraceOf returns the series a sensor records into. Sensors in this
// harness are always constructed with Record.
func powerTraceOf(s *telemetry.Sensor) *sim.Series { return s.Trace() }

// rawMean averages values without outlier filtering (the RawFeedback
// ablation).
func rawMean(vals []float64) (float64, int) {
	if len(vals) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals)), len(vals)
}
