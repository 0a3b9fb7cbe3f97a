package core

import (
	"time"

	"pupil/internal/resource"
)

// AffinityEnv is the optional environment extension for per-application
// scheduling control: beyond choosing which resources are active (what
// PUPiL does), a controller can pin individual applications to core
// subsets. This implements the
// paper's future-work direction of coupling PUPiL with an energy-aware
// scheduler (Section 6: "further performance gains could be achieved by
// coupling PUPiL with advanced energy-aware schedulers").
type AffinityEnv interface {
	Env
	// Apps returns how many applications are running.
	Apps() int
	// SetAffinity pins each application i to at most limits[i] physical
	// cores; 0 lifts the restriction. Effects become observable at the
	// returned time (thread migration latency).
	SetAffinity(limits []int) time.Duration
}

// easState is the affinity-tuning phase's state machine.
type easState int

const (
	easIdle  easState = iota // walker still exploring
	easBegin                 // walker converged; snapshot baseline
	easProbe                 // a candidate pin is applied, waiting
	easDone                  // every app tuned; steady state
)

// EAS couples the PUPiL walker with a per-application affinity tuner: once
// the resource walk converges, it greedily tries to pin each application to
// one socket's worth of cores (halving further while it keeps helping) and
// keeps only pins that improve the aggregate feedback. Pinning a
// pathological application (a cross-socket polling workload like kmeans)
// relieves every co-runner without shrinking the whole machine — gains the
// global walk cannot reach because its knobs apply to all applications at
// once.
type EAS struct {
	walker *Walker
	window time.Duration

	state     easState
	waitUntil time.Duration
	limits    []int
	appIdx    int
	prevLimit int
	baseline  float64
	nApps     int
}

// NewPUPiLEAS builds the extended controller. ordered is the calibrated
// resource order, as for NewPUPiL.
func NewPUPiLEAS(ordered []resource.Resource) *EAS {
	return &EAS{
		walker: NewPUPiL(ordered),
		window: 2500 * time.Millisecond,
	}
}

// Name implements Controller.
func (e *EAS) Name() string { return "PUPiL-EAS" }

// Period implements Controller.
func (e *EAS) Period() time.Duration { return e.walker.Period() }

// Limits returns the current per-application core limits (0 means
// unrestricted); nil before tuning begins.
func (e *EAS) Limits() []int { return append([]int(nil), e.limits...) }

// Start implements Controller. The environment must support per-app
// control; on a plain Env the controller degrades to PUPiL.
func (e *EAS) Start(env Env) {
	e.walker.Start(env)
	e.state = easIdle
}

// Step implements Controller.
func (e *EAS) Step(env Env) {
	aenv, ok := env.(AffinityEnv)
	if !ok {
		// No per-app control available: behave exactly like PUPiL.
		e.walker.Step(env)
		return
	}
	if e.state == easIdle {
		e.walker.Step(env)
		if e.walker.Converged() {
			e.state = easBegin
			e.waitUntil = env.Now() + e.window
		}
		return
	}
	if env.Now() < e.waitUntil {
		return
	}
	switch e.state {
	case easBegin:
		e.nApps = aenv.Apps()
		e.limits = make([]int, e.nApps)
		e.baseline = aenv.Feedback(e.window).Perf
		e.appIdx = 0
		e.probeNext(aenv)
	case easProbe:
		cur := aenv.Feedback(e.window)
		if cur.Perf > e.baseline*(1+e.walker.opt.PerfEps) {
			// The pin helps: adopt it and try tightening further.
			e.baseline = cur.Perf
			e.walker.tracef("[%v] %s: keep pin app %d at %d cores (perf %.3f)",
				env.Now(), e.Name(), e.appIdx, e.limits[e.appIdx], cur.Perf)
			if next := e.limits[e.appIdx] / 2; next >= 1 {
				e.prevLimit = e.limits[e.appIdx]
				e.limits[e.appIdx] = next
				e.apply(aenv)
				return
			}
			e.appIdx++
			e.probeNext(aenv)
			return
		}
		// No improvement: restore and move on.
		e.walker.tracef("[%v] %s: revert pin app %d to %d cores",
			env.Now(), e.Name(), e.appIdx, e.prevLimit)
		e.limits[e.appIdx] = e.prevLimit
		e.apply(aenv)
		e.appIdx++
		e.probeNextAfterRestore(aenv)
	case easDone:
		// Steady: keep the walker's converged-state monitoring alive so
		// phase changes still trigger a fresh walk (which resets pins).
		e.walker.Step(env)
		if !e.walker.Converged() {
			e.resetPins(aenv)
		}
	}
}

// probeNext pins the next candidate application, or finishes.
func (e *EAS) probeNext(aenv AffinityEnv) {
	if e.appIdx >= e.nApps {
		e.finish()
		return
	}
	cfg := aenv.Config()
	candidate := cfg.Cores // one socket's worth of cores
	if cfg.Sockets == 1 {
		candidate = cfg.Cores / 2
	}
	if candidate < 1 {
		// Nothing tighter to try for this app.
		e.appIdx++
		e.probeNext(aenv)
		return
	}
	e.prevLimit = e.limits[e.appIdx]
	e.limits[e.appIdx] = candidate
	e.apply(aenv)
}

// probeNextAfterRestore waits out the restore migration before probing the
// next application.
func (e *EAS) probeNextAfterRestore(aenv AffinityEnv) {
	if e.appIdx >= e.nApps {
		e.finish()
		return
	}
	// The restore's SetAffinity already armed waitUntil; chain the next
	// probe by re-entering easBegin-style probing on the next tick.
	cfg := aenv.Config()
	candidate := cfg.Cores
	if cfg.Sockets == 1 {
		candidate = cfg.Cores / 2
	}
	if candidate < 1 {
		e.appIdx++
		e.probeNextAfterRestore(aenv)
		return
	}
	e.prevLimit = e.limits[e.appIdx]
	e.limits[e.appIdx] = candidate
	e.apply(aenv)
}

// finish enters the steady state. The tuning may have raised performance
// well past the walker's converged level; its phase-change baseline must
// follow, or the improvement itself would be mistaken for a workload change
// and trigger a pin-destroying re-walk.
func (e *EAS) finish() {
	e.state = easDone
	e.walker.convergedPerf = e.baseline
}

// apply ships the current limit vector and arms the measurement wait.
func (e *EAS) apply(aenv AffinityEnv) {
	ready := aenv.SetAffinity(append([]int(nil), e.limits...))
	e.waitUntil = ready + e.window
	e.state = easProbe
}

// resetPins lifts every restriction (a re-walk invalidates the tuning).
func (e *EAS) resetPins(aenv AffinityEnv) {
	for i := range e.limits {
		e.limits[i] = 0
	}
	aenv.SetAffinity(append([]int(nil), e.limits...))
	e.state = easIdle
}
