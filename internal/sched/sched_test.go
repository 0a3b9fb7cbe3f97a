package sched

import (
	"math"
	"testing"
	"testing/quick"

	"pupil/internal/workload"
)

func mkApps(t *testing.T, names []string, threads int) []*workload.Instance {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = workload.Spec{Profile: p, Threads: threads}
	}
	apps, err := workload.NewInstances(specs)
	if err != nil {
		t.Fatal(err)
	}
	return apps
}

func TestWaterfillBasicProportional(t *testing.T) {
	got := Waterfill(10, []float64{100, 100}, []float64{1, 3})
	if math.Abs(got[0]-2.5) > 1e-9 || math.Abs(got[1]-7.5) > 1e-9 {
		t.Errorf("Waterfill = %v, want [2.5 7.5]", got)
	}
}

func TestWaterfillRedistributesOverflow(t *testing.T) {
	got := Waterfill(10, []float64{2, 100}, []float64{1, 1})
	if math.Abs(got[0]-2) > 1e-9 || math.Abs(got[1]-8) > 1e-9 {
		t.Errorf("Waterfill = %v, want [2 8]", got)
	}
}

func TestWaterfillAllSaturated(t *testing.T) {
	got := Waterfill(100, []float64{1, 2}, []float64{1, 1})
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("Waterfill = %v, want caps [1 2]", got)
	}
}

func TestWaterfillZeroWeightGetsNothing(t *testing.T) {
	got := Waterfill(10, []float64{5, 5}, []float64{0, 1})
	if got[0] != 0 || math.Abs(got[1]-5) > 1e-9 {
		t.Errorf("Waterfill = %v, want [0 5]", got)
	}
}

func TestWaterfillMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("mismatched lengths did not panic")
		}
	}()
	Waterfill(1, []float64{1}, []float64{1, 2})
}

// Property: allocations never exceed caps, are non-negative, and their sum
// never exceeds min(total, sum of caps) while filling it when possible.
func TestWaterfillConservationProperty(t *testing.T) {
	f := func(totRaw uint16, capsRaw, weightsRaw [4]uint8) bool {
		total := float64(totRaw%1000) / 10
		caps := make([]float64, 4)
		weights := make([]float64, 4)
		capSum := 0.0
		for i := 0; i < 4; i++ {
			caps[i] = float64(capsRaw[i]%50) / 2
			weights[i] = float64(weightsRaw[i] % 10)
			if weights[i] > 0 {
				capSum += caps[i]
			}
		}
		alloc := Waterfill(total, caps, weights)
		sum := 0.0
		for i, a := range alloc {
			if a < -1e-9 || a > caps[i]+1e-9 {
				return false
			}
			sum += a
		}
		want := math.Min(total, capSum)
		return sum <= want+1e-6 && sum >= want-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPlaceFairShares(t *testing.T) {
	apps := mkApps(t, []string{"x264", "STREAM"}, 8)
	pl := Place(apps, 16, 32)
	if math.Abs(pl.CoreAlloc[0]-8) > 1e-9 || math.Abs(pl.CoreAlloc[1]-8) > 1e-9 {
		t.Errorf("CoreAlloc = %v, want [8 8]", pl.CoreAlloc)
	}
	if pl.Oversub != 0.5 {
		t.Errorf("Oversub = %g, want 0.5", pl.Oversub)
	}
	if pl.OversubFactor != 1 {
		t.Errorf("OversubFactor = %g, want 1 (undersubscribed)", pl.OversubFactor)
	}
}

func TestPlaceCapsAtThreadCount(t *testing.T) {
	apps := mkApps(t, []string{"dijkstra", "jacobi"}, 8)
	apps[0].Threads = 2
	apps[1].Threads = 30
	pl := Place(apps, 16, 32)
	if pl.CoreAlloc[0] > 2+1e-9 {
		t.Errorf("2-thread app got %g cores", pl.CoreAlloc[0])
	}
	if math.Abs(pl.CoreAlloc[0]+pl.CoreAlloc[1]-16) > 1e-6 {
		t.Errorf("core allocations %v do not fill 16 cores", pl.CoreAlloc)
	}
}

func TestPlaceOversubscriptionPenalty(t *testing.T) {
	apps := mkApps(t, []string{"x264", "STREAM", "kmeans", "vips"}, 32)
	pl := Place(apps, 16, 32) // oblivious: 128 threads on 32 contexts
	if pl.Oversub != 4 {
		t.Errorf("Oversub = %g, want 4", pl.Oversub)
	}
	if pl.OversubFactor >= 1 {
		t.Errorf("OversubFactor = %g, want < 1 under oversubscription", pl.OversubFactor)
	}
}

func TestPlaceEmpty(t *testing.T) {
	pl := Place(nil, 16, 32)
	if len(pl.CoreAlloc) != 0 || pl.OversubFactor != 1 {
		t.Errorf("empty placement = %+v", pl)
	}
}

func TestSpinBlockingAppsDoNotSpin(t *testing.T) {
	p, _ := workload.ByName("x264") // blocking sync
	s := Spin(&p, 0.5, 4, 0.4, true)
	if s.Frac != 0 || s.RateMult != 1 {
		t.Errorf("blocking app spin = %+v, want none", s)
	}
}

// TestSpinThreshold: at full speed with no contention, adaptive
// synchronization absorbs waits — no spin cycles, no dilation. This is the
// PUPiL side of Table 6 (0.23-0.48% spin).
func TestSpinThresholdAbsorbsFastSections(t *testing.T) {
	p, _ := workload.ByName("kmeans")
	s := Spin(&p, 0.97, 4, 1.2, false)
	if s.Frac > 0.01 {
		t.Errorf("fast uncontended sections should not spin, got frac %g", s.Frac)
	}
	if s.RateMult < 0.99 {
		t.Errorf("fast uncontended sections should not dilate, got mult %g", s.RateMult)
	}
}

func TestSpinGrowsWithOversubscription(t *testing.T) {
	p, _ := workload.ByName("kmeans")
	// Cross-socket bouncing at a throttled clock pushes sections past the
	// spin budget; preemption then amplifies with oversubscription.
	low := Spin(&p, 0.9, 1, 0.4, true)
	high := Spin(&p, 0.9, 4, 0.4, true)
	if high.Frac <= low.Frac {
		t.Errorf("spin fraction should grow with oversubscription: %g -> %g", low.Frac, high.Frac)
	}
	if high.RateMult >= low.RateMult {
		t.Errorf("rate multiplier should shrink with oversubscription: %g -> %g", low.RateMult, high.RateMult)
	}
}

func TestSpinGrowsWhenSpanningSockets(t *testing.T) {
	p, _ := workload.ByName("kmeans")
	within := Spin(&p, 0.9, 1, 0.6, false)
	across := Spin(&p, 0.9, 1, 0.6, true)
	if across.Frac <= within.Frac {
		t.Errorf("spanning sockets should inflate spin: %g -> %g", within.Frac, across.Frac)
	}
}

func TestSpinGrowsAsClockDrops(t *testing.T) {
	p, _ := workload.ByName("dijkstra")
	fast := Spin(&p, 0.7, 4, 1.0, true)
	slow := Spin(&p, 0.7, 4, 0.4, true)
	if slow.Frac <= fast.Frac {
		t.Errorf("throttling the clock should inflate spin: %g -> %g", fast.Frac, slow.Frac)
	}
}

func TestSpinBounded(t *testing.T) {
	p, _ := workload.ByName("dijkstra")
	s := Spin(&p, 0.05, 10, 0.05, true)
	if s.Frac > MaxSpinFrac {
		t.Errorf("spin fraction %g exceeds bound %g", s.Frac, MaxSpinFrac)
	}
	if s.RateMult <= 0 || s.RateMult > 1 {
		t.Errorf("rate multiplier %g outside (0,1]", s.RateMult)
	}
}

func TestSpinStealAggregates(t *testing.T) {
	apps := mkApps(t, []string{"kmeans", "jacobi"}, 32)
	spins := []SpinState{{Frac: 0.5, RateMult: 0.5}, {}}
	perApp := make([]float64, len(spins))
	steal := SpinStealInto(perApp, spins, []float64{8, 8}, 16, apps)
	// kmeans occupies half the cores, spins half the time, 31/32 of its
	// threads spin.
	want := 0.5 * 0.5 * 31.0 / 32.0
	if math.Abs(steal-want) > 1e-9 {
		t.Errorf("SpinStealInto = %g, want %g", steal, want)
	}
	if math.Abs(perApp[0]-want) > 1e-9 || perApp[1] != 0 {
		t.Errorf("per-app steal = %v, want [%g 0]", perApp, want)
	}
}

func TestSpinStealZeroWithoutSpinners(t *testing.T) {
	apps := mkApps(t, []string{"jacobi", "cfd"}, 8)
	steal := SpinStealInto(make([]float64, 2), []SpinState{{}, {}}, []float64{8, 8}, 16, apps)
	if steal != 0 {
		t.Errorf("SpinStealInto = %g, want 0", steal)
	}
}
