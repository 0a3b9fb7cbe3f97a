package system

import (
	"math"
	"time"

	"pupil/internal/machine"
	"pupil/internal/sched"
	"pupil/internal/workload"
)

// Evaluator computes Evals for a fixed platform and application set,
// caching every configuration-invariant term of the model and reusing all
// result and scratch buffers across calls. It exists for the simulation's
// tick loop, which re-evaluates the same configuration every sensor period:
// only the workload phases change between refreshes, so the placement,
// spin, speedup and bandwidth-capability terms can be computed once per
// configuration instead of once per refresh.
//
// The cache is keyed on the last configuration passed to Eval (compared by
// value, so in-place operating-point mutation by the caller is detected)
// and must be invalidated explicitly with Invalidate whenever the
// application set itself changes behaviour — a profile shift or an affinity
// change. The arithmetic is ordered exactly as Evaluate's, so a cached
// evaluation is bit-identical to a fresh one.
//
// The slices in a returned Eval alias the evaluator's internal buffers and
// are overwritten by the next Eval call; callers that retain a result
// across calls must Clone it. An Evaluator is not safe for concurrent use.
type Evaluator struct {
	plat *machine.Platform
	apps []*workload.Instance

	// Cache key: a private copy of the raw configuration the static terms
	// were computed for (copied into owned slices because callers mutate
	// configs in place).
	valid   bool
	key     machine.Config
	keyFreq []int
	keyDuty []float64

	// Static terms, recomputed only on a key miss or Invalidate.
	cfg        machine.Config // normalized form of key, in owned storage
	cfgFreq    []int
	cfgDuty    []float64
	totalCores int
	fGHz, fRel float64
	placer     sched.Placer
	pl         sched.Placement
	capacity   []float64
	spins      []sched.SpinState
	appSpan    []bool
	steal      float64
	stealApp   []float64
	availBW    float64
	capable    []float64 // per-core-bandwidth capability per app
	compBase   []float64 // compute rate before the workload phase factor
	busyCores  float64
	stallDen   float64
	htShare    float64

	// Reused result buffers (aliased by returned Evals).
	rates       []float64
	perAppSpin  []float64
	perAppBW    []float64
	powerSocket []float64

	// Reused per-call scratch.
	compute []float64
	demand  []float64
	bwCap   []float64
	allocBW []float64
	sat     []bool
	loads   []machine.SocketLoad

	// tempQ holds the quantized per-socket junction temperatures the next
	// evaluation runs at — an explicit eval input, not part of the config
	// cache key. Temperature feeds only the dynamic (per-call) half of the
	// model, so the static terms stay valid across temperature changes.
	tempQ []float64
}

// NewEvaluator returns an evaluator over a fixed platform and app set. Its
// per-app and per-socket buffers are carved from one float64 and one bool
// backing array: a session builds one evaluator, and a fleet builds
// thousands of sessions.
func NewEvaluator(p *machine.Platform, apps []*workload.Instance) *Evaluator {
	n, ns := len(apps), p.Sockets
	fs := make([]float64, 11*n+3*ns)
	f := func(k int) []float64 {
		v := fs[:k:k]
		fs = fs[k:]
		return v
	}
	bs := make([]bool, 2*n)
	return &Evaluator{
		plat:        p,
		apps:        apps,
		cfgFreq:     make([]int, ns),
		cfgDuty:     f(ns),
		capacity:    f(n),
		spins:       make([]sched.SpinState, n),
		appSpan:     bs[:n:n],
		stealApp:    f(n),
		capable:     f(n),
		compBase:    f(n),
		rates:       f(n),
		perAppSpin:  f(n),
		perAppBW:    f(n),
		powerSocket: f(ns),
		compute:     f(n),
		demand:      f(n),
		bwCap:       f(n),
		allocBW:     f(n),
		sat:         bs[n:],
		loads:       make([]machine.SocketLoad, ns),
		tempQ:       f(ns),
	}
}

// Invalidate drops the cached static terms. Callers must invoke it whenever
// an application's behaviour changes outside a configuration change — a
// profile shift or an affinity-limit update — since those feed the cached
// placement and speedup terms.
func (e *Evaluator) Invalidate() { e.valid = false }

// Eval evaluates cfg at simulated time now, rebuilding the static model
// terms only when cfg differs from the previous call's configuration.
// Junction temperatures are taken as unmodeled (zero); platforms with a
// leakage model should use EvalAt.
func (e *Evaluator) Eval(cfg machine.Config, now time.Duration) Eval {
	return e.EvalAt(cfg, now, nil)
}

// EvalAt is Eval with per-socket junction temperatures as an explicit
// input. Temperatures are quantized to TempQuantC before use — two calls
// whose temperatures land on the same grid points are bit-identical —
// and feed only the per-call dynamic half of the model, so temperature
// changes never invalidate the configuration-keyed static cache. A nil or
// short slice leaves the missing sockets unmodeled (zero).
func (e *Evaluator) EvalAt(cfg machine.Config, now time.Duration, tempsC []float64) Eval {
	for s := range e.tempQ {
		if s < len(tempsC) {
			e.tempQ[s] = QuantizeTempC(tempsC[s])
		} else {
			e.tempQ[s] = 0
		}
	}
	if !e.valid || !cfg.Equal(e.key) {
		e.rebuild(cfg)
	}
	return e.dynamic(now)
}

// rebuild recomputes every configuration-invariant term, in the exact
// arithmetic order Evaluate uses.
func (e *Evaluator) rebuild(raw machine.Config) {
	e.keyFreq = append(e.keyFreq[:0], raw.Freq...)
	e.keyDuty = append(e.keyDuty[:0], raw.Duty...)
	e.key = raw
	e.key.Freq = e.keyFreq
	e.key.Duty = e.keyDuty
	e.valid = true
	cfg := raw.NormalizeInto(e.plat, e.cfgFreq, e.cfgDuty)
	e.cfg = cfg
	p := e.plat
	apps := e.apps
	n := len(apps)

	e.totalCores = cfg.TotalCores()
	hwThreads := cfg.HWThreads()
	spanning := cfg.Sockets > 1
	e.fGHz = cfg.MeanGHz(p)
	e.fRel = e.fGHz / p.BaseGHz()

	if n == 0 {
		return
	}

	e.pl = e.placer.Place(apps, e.totalCores, hwThreads)
	pl := e.pl

	// Per-app effective parallelism and spin behaviour (see Evaluate).
	for i, a := range apps {
		cores := pl.CoreAlloc[i]
		e.appSpan[i] = spanning
		if a.AffinityCores > 0 && a.AffinityCores <= cfg.Cores {
			e.appSpan[i] = false
		}
		htFactor := 1.0
		if cfg.HT && cores > 0 && float64(a.Threads) > cores {
			engage := math.Min(1, (float64(a.Threads)-cores)/cores)
			htFactor = 1 + a.Profile.HTYield*engage
			if htFactor < 0.1 {
				htFactor = 0.1
			}
		}
		e.capacity[i] = cores * htFactor
		nEff := math.Min(float64(a.Threads), e.capacity[i])
		parEff := 1.0
		if nEff > 1 {
			parEff = a.Profile.Speedup(nEff, e.appSpan[i]) / nEff
		}
		e.spins[i] = sched.Spin(a.Profile, parEff, pl.Oversub, e.fRel, e.appSpan[i])
		e.perAppSpin[i] = e.spins[i].Frac
	}

	steal := sched.SpinStealInto(e.stealApp, e.spins, pl.CoreAlloc, float64(e.totalCores), apps)
	stealPerApp := e.stealApp
	e.steal = steal
	stealGate := clamp01(pl.Oversub - 1)

	// Compute-side rate per app, up to but excluding the phase factor —
	// the only time-dependent term. The multiplication order matches
	// Evaluate's left-associated chain exactly, with PhaseFactor applied
	// last in dynamic(), so the product is bit-identical.
	for i, a := range apps {
		e.compBase[i] = 0
		usefulScale := 1 - (steal-stealPerApp[i])*stealGate*sched.SpinVictimCost
		if usefulScale < 0.1 {
			usefulScale = 0.1
		}
		nEff := math.Min(float64(a.Threads), e.capacity[i])
		if nEff <= 0 {
			continue
		}
		speedup := a.Profile.Speedup(nEff, e.appSpan[i])
		e.compBase[i] = a.Profile.BaseRate * e.fRel * speedup * usefulScale *
			pl.OversubFactor * e.spins[i].RateMult
	}

	availBW := p.TotalBWGBs(cfg.MemCtls)
	availBW *= 1 - math.Min(0.5, steal*sched.SpinBWPollution)
	e.availBW = availBW
	perCoreBW := p.PerCoreBWGBs * (memFreqFloor + (1-memFreqFloor)*e.fRel)
	for i, a := range apps {
		capable := pl.CoreAlloc[i] * perCoreBW
		if cfg.HT {
			capable *= 1 - htBWPenalty*a.Profile.MemIntensity
		}
		e.capable[i] = capable
	}

	// The power model's load terms that do not depend on achieved
	// bandwidth: busy cores and the stall denominator.
	busyCores := 0.0
	stallDen := 0.0
	for i := range apps {
		cores := pl.CoreAlloc[i]
		if cores <= 0 {
			continue
		}
		busyCores += cores
		stallDen += cores
	}
	e.busyCores = math.Min(busyCores, float64(e.totalCores))
	e.stallDen = stallDen

	e.htShare = 0
	if cfg.HT && e.totalCores > 0 {
		e.htShare = clamp01(float64(pl.TotalThreads)/float64(e.totalCores) - 1)
	}
}

// dynamic computes the time-dependent half of the model over the cached
// static terms: workload phases, bandwidth sharing, rate blending, and
// power.
func (e *Evaluator) dynamic(now time.Duration) Eval {
	p := e.plat
	cfg := e.cfg
	apps := e.apps
	n := len(apps)
	ev := Eval{
		Rates:      e.rates,
		PerAppSpin: e.perAppSpin,
		PerAppBW:   e.perAppBW,
		Loads:      e.loads,
	}
	if n == 0 {
		for s := range e.loads {
			e.loads[s] = machine.SocketLoad{TempC: e.tempQ[s]}
		}
		ev.PowerTotal = p.PowerInto(e.powerSocket, cfg, e.loads)
		ev.PowerSocket = e.powerSocket
		return ev
	}
	ev.SpinFrac = e.steal

	for i, a := range apps {
		e.compute[i] = e.compBase[i] * a.Profile.PhaseFactor(now)
		e.demand[i] = e.compute[i] * a.Profile.GBPerUnit
		e.bwCap[i] = math.Min(e.capable[i], math.Max(e.demand[i], 0))
	}
	sched.WaterfillInto(e.allocBW, e.sat, e.availBW, e.bwCap, e.demand)

	// Blend compute and memory legs per app (see Evaluate).
	for i, a := range apps {
		mi := a.Profile.MemIntensity
		e.perAppBW[i] = 0
		if e.compute[i] <= 0 {
			ev.Rates[i] = 0
			continue
		}
		if mi <= 0 || a.Profile.GBPerUnit <= 0 {
			ev.Rates[i] = e.compute[i]
			continue
		}
		memRate := e.allocBW[i] / a.Profile.GBPerUnit
		if memRate <= 0 {
			ev.Rates[i] = e.compute[i] * (1 - mi)
			continue
		}
		ev.Rates[i] = 1 / ((1-mi)/e.compute[i] + mi/memRate)
		ev.PerAppBW[i] = math.Min(ev.Rates[i]*a.Profile.GBPerUnit, e.allocBW[i])
		ev.MemBWGBs += ev.PerAppBW[i]
	}

	// Power-model load terms that depend on achieved bandwidth (see
	// Evaluate; busyCores and stallDen were accumulated at rebuild).
	stallNum := 0.0
	for i, a := range apps {
		cores := e.pl.CoreAlloc[i]
		if cores <= 0 {
			continue
		}
		spin := e.spins[i].Frac
		sat := 1.0
		if e.demand[i] > 1e-9 {
			sat = clamp01(e.allocBW[i] / e.demand[i])
		}
		stall := a.Profile.MemIntensity * (0.6 + 0.4*sat)
		spinStallEq := (1 - spinPowerFactor) / (1 - p.StallPowerFactor)
		stallNum += cores * ((1-spin)*stall + spin*spinStallEq)

		ipc := a.Profile.IPC
		useful := cores * (1 - spin) * (1 - stall*0.5)
		spinning := cores * spin
		ev.GIPS += (useful + spinning) * e.fGHz * ipc
	}
	stall := 0.0
	if e.stallDen > 0 {
		stall = stallNum / e.stallDen
	}

	for s := range e.loads {
		e.loads[s] = machine.SocketLoad{}
	}
	active := cfg.Sockets
	for s := 0; s < active; s++ {
		e.loads[s] = machine.SocketLoad{
			BusyCores: e.busyCores / float64(active),
			HTShare:   e.htShare,
			StallFrac: stall,
		}
	}
	for s := 0; s < cfg.MemCtls && s < p.Sockets; s++ {
		e.loads[s].BWGBs = ev.MemBWGBs / float64(cfg.MemCtls)
	}
	for s := range e.loads {
		e.loads[s].TempC = e.tempQ[s]
	}
	ev.PowerTotal = p.PowerInto(e.powerSocket, cfg, e.loads)
	ev.PowerSocket = e.powerSocket
	return ev
}
