package core

import (
	"testing"
	"time"

	"pupil/internal/machine"
)

// affinityFakeEnv extends fakeEnv with per-application control.
type affinityFakeEnv struct {
	*fakeEnv
	affSets int
}

func (e *affinityFakeEnv) Apps() int { return len(e.apps) }

func (e *affinityFakeEnv) SetAffinity(limits []int) time.Duration {
	for i, a := range e.apps {
		if i < len(limits) {
			a.AffinityCores = limits[i]
		}
	}
	e.affSets++
	return e.now + 200*time.Millisecond
}

func runEAS(t *testing.T, env Env, e *EAS, deadline time.Duration) {
	t.Helper()
	e.Start(env)
	now := func() time.Duration {
		switch v := env.(type) {
		case *affinityFakeEnv:
			return v.now
		case *fakeEnv:
			return v.now
		}
		return 0
	}
	advance := func(d time.Duration) {
		switch v := env.(type) {
		case *affinityFakeEnv:
			v.now += d
		case *fakeEnv:
			v.now += d
		}
	}
	for now() < deadline {
		advance(e.Period())
		e.Step(env)
	}
}

// TestEASPinsPathologicalApp: on an oblivious mix whose walk keeps both
// sockets, the tuner must pin the cross-socket polling application (kmeans)
// to one socket and raise aggregate performance.
func TestEASPinsPathologicalApp(t *testing.T) {
	base := newFakeEnv(t, 220, 32, "btree", "particlefilter", "kmeans", "STREAM")
	env := &affinityFakeEnv{fakeEnv: base}
	plain := newFakeEnv(t, 220, 32, "btree", "particlefilter", "kmeans", "STREAM")

	e := NewPUPiLEAS(DefaultOrdered(env.p))
	runEAS(t, env, e, 4*time.Minute)

	w := NewPUPiL(DefaultOrdered(plain.p))
	run(t, w, plain, 4*time.Minute)

	easPerf := env.Feedback(0).Perf
	pupilPerf := plain.Feedback(0).Perf
	if easPerf <= pupilPerf*1.05 {
		t.Errorf("EAS perf %.2f should exceed plain PUPiL %.2f on mix12", easPerf, pupilPerf)
	}
	limits := e.Limits()
	if len(limits) != 4 {
		t.Fatalf("limits = %v, want 4 entries", limits)
	}
	if limits[2] == 0 {
		t.Errorf("kmeans (index 2) not pinned: limits = %v", limits)
	}
}

// TestEASKeepsHarmlessAppsUnpinned: well-behaved applications should come
// out unrestricted.
func TestEASLeavesScalableMixAlone(t *testing.T) {
	base := newFakeEnv(t, 220, 32, "blackscholes", "swaptions")
	env := &affinityFakeEnv{fakeEnv: base}
	e := NewPUPiLEAS(DefaultOrdered(env.p))
	runEAS(t, env, e, 4*time.Minute)
	for i, l := range e.Limits() {
		if l != 0 {
			t.Errorf("scalable app %d pinned to %d cores", i, l)
		}
	}
}

// TestEASDegradesToPUPiL: on an environment without per-app control, the
// controller must behave exactly like PUPiL.
func TestEASDegradesToPUPiL(t *testing.T) {
	env := newFakeEnv(t, 140, 32, "kmeans")
	e := NewPUPiLEAS(DefaultOrdered(env.p))
	e.Start(env)
	for env.now < 4*time.Minute && !e.walker.Converged() {
		env.now += e.Period()
		e.Step(env)
	}
	if !e.walker.Converged() {
		t.Fatal("EAS-on-plain-Env did not converge")
	}
	if env.cfg.Sockets != 1 {
		t.Errorf("degraded EAS left kmeans on %d sockets, want 1", env.cfg.Sockets)
	}
	if e.Limits() != nil && len(e.Limits()) != 0 {
		t.Errorf("degraded EAS produced limits %v", e.Limits())
	}
}

// TestEASSetsCapBeforeConfig: the hybrid timeliness property is inherited.
func TestEASSetsCapBeforeConfig(t *testing.T) {
	base := newFakeEnv(t, 140, 32, "jacobi")
	env := &affinityFakeEnv{fakeEnv: base}
	e := NewPUPiLEAS(DefaultOrdered(env.p))
	e.Start(env)
	if len(env.events) < 2 || env.events[0] != "rapl" {
		t.Errorf("EAS first action = %v, want hardware cap first", env.events)
	}
}

// TestEASName covers identification.
func TestEASName(t *testing.T) {
	e := NewPUPiLEAS(DefaultOrdered(machine.E52690Server()))
	if e.Name() != "PUPiL-EAS" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.Period() <= 0 {
		t.Error("non-positive period")
	}
}
