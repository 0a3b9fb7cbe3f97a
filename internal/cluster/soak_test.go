package cluster

import (
	"runtime"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/driver"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

// TestRetainedSoak runs what pupild serves for 10⁶ kernel ticks, 1000 s of
// simulated time: one retained session stepped as a node is, and a
// four-node, health-on coordinator stepped an epoch at a time. Once warm
// (at 10 s) neither may grow: the live heap after a GC stays within 8 KB
// per session of its 10 s value, and the goroutine count is unchanged. The
// coordinator's own cap trace grows a row per epoch by design, so it is
// preallocated first and the measurement sees only what the sessions keep.
func TestRetainedSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-tick soak")
	}
	const warm, horizon = 10 * time.Second, 1000 * time.Second

	t.Run("session", func(t *testing.T) {
		prof, err := workload.ByName("blackscholes")
		if err != nil {
			t.Fatal(err)
		}
		s, err := driver.NewSession(driver.Scenario{
			Platform:   machine.E52690Server(),
			Specs:      []workload.Spec{{Profile: prof, Threads: 32}},
			CapWatts:   110,
			Controller: control.NewRAPLOnly(),
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		const tick = 250 * time.Millisecond
		s.Retain(tick)
		soak(t, 1, warm, horizon, func(d time.Duration) {
			for end := s.Now() + d; s.Now() < end; {
				s.Advance(tick)
				_ = s.MeanPower(tick)
				_ = s.Snapshot()
			}
		})
		runtime.KeepAlive(s)
	})

	t.Run("coordinator", func(t *testing.T) {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "PUPiL"),
			BudgetWatts: 400,
			Epoch:       time.Second,
			Policy:      DemandShiftPolicy{},
			Seed:        3,
			Health:      healthOn(),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.GrowTraces(horizon)
		var sn Snapshot
		soak(t, c.NodeCount(), warm, horizon, func(d time.Duration) {
			for end := c.Now() + d; c.Now() < end; {
				if err := c.Step(c.Epoch()); err != nil {
					t.Fatal(err)
				}
				c.SnapshotInto(&sn)
			}
		})
		runtime.KeepAlive(c)
	})
}

// soak runs run(warm), measures, runs the rest of the horizon and checks
// that neither the live heap (beyond 8 KB per session) nor the goroutine
// count grew.
func soak(t *testing.T, sessions int, warm, horizon time.Duration, run func(time.Duration)) {
	t.Helper()
	run(warm)
	heap0, g0 := liveHeap(), runtime.NumGoroutine()
	run(horizon - warm)
	heap1 := liveHeap()
	if growth, limit := int64(heap1)-int64(heap0), int64(sessions)*8<<10; growth > limit {
		t.Errorf("live heap grew %d B from %v to %v, limit %d B", growth, warm, horizon, limit)
	}
	// The step pool's workers may still be exiting just after the step
	// that started them returns.
	g1 := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); g1 != g0 && time.Now().Before(deadline); g1 = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if g1 != g0 {
		t.Errorf("goroutines went from %d at %v to %d at %v", g0, warm, g1, horizon)
	}
	t.Logf("live heap %d B at %v, %d B at %v; %d goroutines", heap0, warm, heap1, horizon, g1)
}

// liveHeap is the heap in use by reachable objects after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
