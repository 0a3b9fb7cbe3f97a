package rapl

import (
	"testing"
	"time"

	"pupil/internal/machine"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// bench is a test actuator backed by the ground-truth evaluator: a machine
// running one app whose per-socket operating points the firmware drives.
type bench struct {
	plat *machine.Platform
	cfg  machine.Config
	apps []*workload.Instance
}

func newBench(t *testing.T, app string, threads int) *bench {
	t.Helper()
	p := machine.E52690Server()
	prof, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	apps, err := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: threads}})
	if err != nil {
		t.Fatal(err)
	}
	return &bench{plat: p, cfg: machine.MaxConfig(p), apps: apps}
}

func (b *bench) SocketPower(s int) float64 {
	ev := system.Evaluate(b.plat, b.cfg, b.apps, 0)
	return ev.PowerSocket[s]
}

func (b *bench) SetOperatingPoint(s int, freqIdx int, duty float64) {
	b.cfg.Freq[s] = freqIdx
	b.cfg.Duty[s] = duty
}

func (b *bench) totalPower() float64 {
	return system.Evaluate(b.plat, b.cfg, b.apps, 0).PowerTotal
}

func runFirmware(b *bench, caps [2]float64, d time.Duration) []*Firmware {
	r := sim.NewRunner(nil)
	fws := make([]*Firmware, 2)
	for s := 0; s < 2; s++ {
		fws[s] = NewFirmware(b.plat, s, b, DefaultConfig(), sim.NewRNG(uint64(s)+1))
		fws[s].SetCap(0, caps[s])
		r.Register(fws[s])
	}
	r.Run(d)
	return fws
}

func TestFirmwareMeetsCap(t *testing.T) {
	b := newBench(t, "jacobi", 32)
	before := b.totalPower()
	runFirmware(b, [2]float64{70, 70}, time.Second)
	after := b.totalPower()
	if after > 140*1.05 {
		t.Errorf("power after capping = %.1f W, want <= ~140 W", after)
	}
	if before <= 140 {
		t.Fatalf("test premise broken: uncapped power %.1f W should exceed the cap", before)
	}
}

func TestFirmwareConvergesQuickly(t *testing.T) {
	// RAPL's defining property (Fig. 4): the cap is enforced within a few
	// hundred milliseconds.
	b := newBench(t, "x264", 32)
	r := sim.NewRunner(nil)
	var fws [2]*Firmware
	for s := 0; s < 2; s++ {
		fws[s] = NewFirmware(b.plat, s, b, DefaultConfig(), sim.NewRNG(uint64(s)+7))
		fws[s].SetCap(0, 70)
		r.Register(fws[s])
	}
	var settled time.Duration
	for r.Clock.Now() < 2*time.Second {
		r.Run(sim.Tick)
		if b.totalPower() <= 140*1.02 {
			settled = r.Clock.Now()
			break
		}
	}
	if settled == 0 || settled > 600*time.Millisecond {
		t.Errorf("firmware settled at %v, want under 600ms", settled)
	}
}

func TestFirmwareUsesFullBudget(t *testing.T) {
	// Efficiency within hardware's means: the firmware should not leave a
	// large fraction of the budget unused once converged.
	b := newBench(t, "blackscholes", 32)
	runFirmware(b, [2]float64{70, 70}, 2*time.Second)
	after := b.totalPower()
	if after < 140*0.85 {
		t.Errorf("converged power %.1f W leaves too much of the 140 W budget unused", after)
	}
}

func TestFirmwareDutyCyclesBelowLowestPState(t *testing.T) {
	b := newBench(t, "swaptions", 32)
	fws := runFirmware(b, [2]float64{28, 28}, 2*time.Second)
	after := b.totalPower()
	if after > 56*1.1 {
		t.Errorf("power under 56 W total cap = %.1f W", after)
	}
	fi, duty := fws[0].OperatingPoint()
	if fi != 0 || duty >= 1 {
		t.Errorf("expected duty-cycling at the lowest p-state, got freq=%d duty=%.2f", fi, duty)
	}
}

func TestFirmwareUncappedRestoresMax(t *testing.T) {
	b := newBench(t, "jacobi", 32)
	fw := NewFirmware(b.plat, 0, b, DefaultConfig(), sim.NewRNG(5))
	fw.SetCap(0, 50)
	r := sim.NewRunner(nil)
	r.Register(fw)
	r.Run(time.Second)
	fw.SetCap(r.Clock.Now(), 0)
	fi, duty := fw.OperatingPoint()
	if fi != b.plat.NumFreqSettings()-1 || duty != 1 {
		t.Errorf("uncapping left operating point at freq=%d duty=%.2f", fi, duty)
	}
	if fw.Cap() != 0 {
		t.Errorf("Cap() = %g after uncapping", fw.Cap())
	}
}

func TestFirmwareHoldsCapUnderWorkloadShift(t *testing.T) {
	// Switch the machine's load mid-run (app changes phase dramatically);
	// the firmware must re-converge on its own.
	b := newBench(t, "STREAM", 32)
	r := sim.NewRunner(nil)
	var fws [2]*Firmware
	for s := 0; s < 2; s++ {
		fws[s] = NewFirmware(b.plat, s, b, DefaultConfig(), sim.NewRNG(uint64(s)+11))
		fws[s].SetCap(0, 60)
		r.Register(fws[s])
	}
	r.Run(time.Second)
	// Swap in a hotter workload.
	prof, _ := workload.ByName("swaptions")
	apps, _ := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 32}})
	b.apps = apps
	r.Run(time.Second)
	if got := b.totalPower(); got > 120*1.05 {
		t.Errorf("power %.1f W after workload shift, want <= ~120 W", got)
	}
}

func TestFirmwareIgnoresTicksBeforeCapSet(t *testing.T) {
	b := newBench(t, "jacobi", 32)
	fw := NewFirmware(b.plat, 0, b, DefaultConfig(), sim.NewRNG(2))
	r := sim.NewRunner(nil)
	r.Register(fw)
	r.Run(500 * time.Millisecond)
	fi, duty := fw.OperatingPoint()
	if fi != b.plat.NumFreqSettings()-1 || duty != 1 {
		t.Errorf("firmware actuated before a cap was programmed: freq=%d duty=%.2f", fi, duty)
	}
}

// windowIntegrator accumulates per-aligned-window energy of a bench.
type windowIntegrator struct {
	b       *bench
	window  time.Duration
	energyJ float64
	windows []float64
	elapsed time.Duration
}

func (wi *windowIntegrator) Step(now, dt time.Duration) {
	wi.energyJ += wi.b.totalPower() * dt.Seconds()
	wi.elapsed += dt
	if wi.elapsed >= wi.window {
		wi.windows = append(wi.windows, wi.energyJ)
		wi.energyJ = 0
		wi.elapsed = 0
	}
}

// TestFirmwareWindowEnergyContract checks RAPL's actual contract: once
// converged, the energy consumed in any aligned averaging window stays
// within the window budget (cap x window), modulo estimator error — even
// though instantaneous power oscillates across p-state rungs.
func TestFirmwareWindowEnergyContract(t *testing.T) {
	b := newBench(t, "bodytrack", 32)
	cfg := DefaultConfig()
	r := sim.NewRunner(&windowIntegrator{b: b, window: cfg.Window})
	wi := r.World.(*windowIntegrator)
	for s := 0; s < 2; s++ {
		fw := NewFirmware(b.plat, s, b, cfg, sim.NewRNG(uint64(s)+21))
		fw.SetCap(0, 60)
		r.Register(fw)
	}
	r.Run(3 * time.Second)
	budget := 120 * cfg.Window.Seconds() // both sockets
	// Skip the convergence prefix (warmup + a few windows).
	steady := wi.windows[8:]
	over := 0
	for _, e := range steady {
		if e > budget*1.06 {
			over++
		}
	}
	if frac := float64(over) / float64(len(steady)); frac > 0.05 {
		t.Errorf("%.0f%% of aligned windows exceeded the energy budget", frac*100)
	}
}
