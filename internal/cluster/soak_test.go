package cluster

import (
	"runtime"
	"slices"
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
// coordinator retains its epoch, as pupild's clusters do, so its own cap
// trace counts in that bound too.
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
		c.Retain(c.Epoch())
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

// TestCoordinatorRetain: a coordinator retaining its epoch keeps exactly the
// trailing rows of what an unretained twin records — both traces,
// row-aligned, with budget and node-cap changes between epochs — while its
// trace stops growing, and once warm its trace recording allocates nothing.
func TestCoordinatorRetain(t *testing.T) {
	build := func() *Coordinator {
		c, err := NewCoordinator(Config{
			Nodes:       mixedCluster(t, "RAPL"),
			BudgetWatts: 400,
			Epoch:       100 * time.Millisecond,
			Policy:      DemandShiftPolicy{},
			Seed:        5,
			Topology:    Topology{NodesPerRack: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	full, kept := build(), build()
	kept.Retain(kept.Epoch())
	for epoch := 1; epoch <= 300; epoch++ {
		for _, c := range []*Coordinator{full, kept} {
			if epoch%7 == 0 {
				if err := c.SetBudget(float64(360 + epoch%5*20)); err != nil {
					t.Fatal(err)
				}
			}
			if epoch%11 == 0 {
				if err := c.SetNodeCap(epoch%4, 90); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Step(c.Epoch()); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		n := len(kept.capTrace)
		if len(kept.rowT) != n || len(kept.domainTrace) != n {
			t.Fatalf("epoch %d: %d cap rows, %d row times, %d domain rows", epoch, n, len(kept.rowT), len(kept.domainTrace))
		}
		if n > 16 {
			t.Fatalf("epoch %d: retained coordinator holds %d rows", epoch, n)
		}
		if kept.rowT[0] > kept.now-kept.keep {
			t.Fatalf("epoch %d: oldest row at %v leaves the window from %v uncovered", epoch, kept.rowT[0], kept.now-kept.keep)
		}
		off := len(full.capTrace) - n
		for i := 0; i < n; i++ {
			if !slices.Equal(kept.capTrace[i], full.capTrace[off+i]) || !slices.Equal(kept.domainTrace[i], full.domainTrace[off+i]) {
				t.Fatalf("epoch %d: retained row %d differs from the full trace's row %d", epoch, i, off+i)
			}
		}
	}
	// A thousand more epochs' rows, with nothing else running: once warm,
	// each reuses a dropped row's storage.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			kept.now += kept.Epoch()
			kept.record()
		}
	})
	if allocs != 0 {
		t.Errorf("1000 warm retained epochs' rows allocated %.0f times", allocs)
	}
}
