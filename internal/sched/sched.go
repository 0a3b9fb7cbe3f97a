// Package sched models how the operating system's scheduler multiplexes
// application threads onto the active cores of a configuration: fair-share
// core allocation, the cost of oversubscription, and the spin-cycle
// pathology of polling synchronization under contention that Section 5.4.3
// of the PUPiL paper diagnoses with VTune.
//
// The PUPiL system itself does not place threads — it chooses which
// resources are active and lets the OS scheduler do placement (Section 6 of
// the paper). This package is that scheduler's model.
package sched

import (
	"math"

	"pupil/internal/workload"
)

// Model parameters. These are calibration constants of the scheduler
// substrate, fixed once against the paper's reported phenomena (Table 6
// spin percentages, oblivious-scenario collapse) and never consulted by the
// power-capping controllers.
const (
	// OversubCost is the per-app throughput penalty coefficient for each
	// extra runnable thread per hardware thread (context-switch and
	// cache-repopulation cost).
	OversubCost = 0.02
	// SpinThreshold is the critical-section stretch factor (relative to
	// an uncontended run at base frequency) below which adaptive
	// spin-then-park synchronization absorbs waits with negligible spin
	// cycles. Sections stretched past it overrun the spin budget and the
	// quantum, and spinning erupts.
	SpinThreshold = 2.0
	// SpinFreqFloor is the fraction of critical-section latency that does
	// not scale with clock (memory and interconnect latency), bounding
	// how much throttling alone can dilate sections.
	SpinFreqFloor = 0.35
	// SpinOversubStretch dilates critical sections per extra runnable
	// thread per hardware context: the working thread time-shares its
	// core with its runnable siblings.
	SpinOversubStretch = 0.18
	// SpinPreemptCost amplifies overrunning serial sections when the
	// system is oversubscribed: the one thread making progress loses its
	// core to threads that spin (lock-holder preemption).
	SpinPreemptCost = 3.0
	// SpinCrossScale converts a workload's cross-socket coherence
	// coefficient into critical-section stretch when its threads span
	// sockets (the lock/flag cache line bounces between packages).
	SpinCrossScale = 150
	// SpinContentionCost stretches critical sections as parallel
	// efficiency degrades (the working thread competes with its own
	// siblings for cache and memory ports).
	SpinContentionCost = 1.2
	// MaxSpinFrac bounds the fraction of an app's wall-clock time spent
	// with siblings spinning; even pathological runs make some progress.
	MaxSpinFrac = 0.92
	// SpinVictimCost scales how much co-runner throughput one unit of
	// spin core-time destroys: beyond occupying the core, a spin storm
	// pollutes shared caches and keeps coherence traffic hot.
	SpinVictimCost = 1.8
	// SpinBWPollution converts the system spin fraction into lost memory
	// bandwidth: polling storms keep the interconnect and memory queues
	// occupied with coherence traffic (the Table 6 bandwidth collapse).
	SpinBWPollution = 1.2
)

// Waterfill distributes total units across items proportionally to weights,
// capping each item at caps[i] and redistributing the excess among
// unsaturated items. It returns the per-item allocation. Items with zero
// weight receive nothing. caps and weights must have equal length.
func Waterfill(total float64, caps, weights []float64) []float64 {
	alloc := make([]float64, len(caps))
	WaterfillInto(alloc, make([]bool, len(caps)), total, caps, weights)
	return alloc
}

// WaterfillInto is Waterfill with caller-owned storage: the allocation is
// written into alloc and saturated is used as scratch (both must match the
// caps length). It exists for the evaluator's hot path, which waterfills
// every refresh and reuses its buffers across calls.
func WaterfillInto(alloc []float64, saturated []bool, total float64, caps, weights []float64) {
	if len(caps) != len(weights) {
		panic("sched: Waterfill caps/weights length mismatch")
	}
	if len(alloc) != len(caps) || len(saturated) != len(caps) {
		panic("sched: WaterfillInto storage length mismatch")
	}
	for i := range alloc {
		alloc[i] = 0
		saturated[i] = false
	}
	if total <= 0 {
		return
	}
	remaining := total
	for iter := 0; iter < len(caps)+1; iter++ {
		wsum := 0.0
		for i, w := range weights {
			if !saturated[i] && w > 0 {
				wsum += w
			}
		}
		if wsum <= 0 || remaining <= 1e-12 {
			break
		}
		overflow := 0.0
		progressed := false
		for i, w := range weights {
			if saturated[i] || w <= 0 {
				continue
			}
			share := remaining * w / wsum
			if alloc[i]+share >= caps[i] {
				overflow += alloc[i] + share - caps[i]
				alloc[i] = caps[i]
				saturated[i] = true
				progressed = true
			} else {
				alloc[i] += share
			}
		}
		if !progressed {
			remaining = 0
			break
		}
		remaining = overflow
	}
}

// Placement describes how a set of applications lands on a configuration's
// hardware, as computed by Place.
type Placement struct {
	// CoreAlloc is the average physical cores each app occupies.
	CoreAlloc []float64
	// TotalThreads is the sum of runnable threads.
	TotalThreads int
	// Oversub is runnable threads per hardware thread (>= 0); values
	// above 1 mean time multiplexing.
	Oversub float64
	// OversubFactor is the throughput multiplier (<= 1) every app pays
	// for time multiplexing.
	OversubFactor float64
}

// Place computes fair-share core allocation for apps on a configuration
// with totalCores physical cores and hwThreads schedulable contexts. Each
// app's share is proportional to its runnable thread count, capped at its
// thread count (a thread occupies at most one core), with unused share
// redistributed.
func Place(apps []*workload.Instance, totalCores, hwThreads int) Placement {
	var pp Placer
	return pp.Place(apps, totalCores, hwThreads)
}

// Placer computes placements with reusable storage, for hot paths that
// re-place the same app set on every configuration change. The CoreAlloc
// slice of a returned Placement aliases the placer's buffer and is
// overwritten by the next Place call.
type Placer struct {
	coreAlloc []float64
	caps      []float64
	weights   []float64
	sat       []bool
}

// Place computes the same placement as the package-level Place, reusing the
// placer's buffers.
func (pp *Placer) Place(apps []*workload.Instance, totalCores, hwThreads int) Placement {
	n := len(apps)
	if cap(pp.coreAlloc) < n {
		pp.coreAlloc = make([]float64, n)
		pp.caps = make([]float64, n)
		pp.weights = make([]float64, n)
		pp.sat = make([]bool, n)
	}
	pp.coreAlloc = pp.coreAlloc[:n]
	pp.caps = pp.caps[:n]
	pp.weights = pp.weights[:n]
	pp.sat = pp.sat[:n]

	pl := Placement{CoreAlloc: pp.coreAlloc}
	if n == 0 || totalCores <= 0 || hwThreads <= 0 {
		for i := range pp.coreAlloc {
			pp.coreAlloc[i] = 0
		}
		pl.OversubFactor = 1
		return pl
	}
	for i, a := range apps {
		pp.caps[i] = float64(a.Threads)
		if a.AffinityCores > 0 && float64(a.AffinityCores) < pp.caps[i] {
			// A cpuset mask bounds the cores an app may occupy.
			pp.caps[i] = float64(a.AffinityCores)
		}
		pp.weights[i] = float64(a.Threads)
		pl.TotalThreads += a.Threads
	}
	WaterfillInto(pp.coreAlloc, pp.sat, float64(totalCores), pp.caps, pp.weights)
	pl.Oversub = float64(pl.TotalThreads) / float64(hwThreads)
	pl.OversubFactor = 1.0
	if pl.Oversub > 1 {
		pl.OversubFactor = 1 / (1 + OversubCost*(pl.Oversub-1))
	}
	return pl
}

// SpinState describes the polling-synchronization behaviour of one app in
// one configuration, as computed by Spin.
type SpinState struct {
	// Frac is the fraction of the app's wall-clock time during which its
	// non-working threads spin (zero for non-polling apps).
	Frac float64
	// RateMult is the multiplier (<= 1) on the app's throughput from
	// serial-phase dilation (Amdahl time stretched by preemption,
	// cross-socket line bouncing and self-contention).
	RateMult float64
}

// Spin models the serial/polling phase of app p. parEff is the app's
// parallel efficiency in this configuration (USL speedup divided by worker
// count, in (0,1]); oversub is runnable threads per hardware thread;
// spanning reports whether the app's threads span multiple sockets; fRel is
// the effective clock relative to the platform's base frequency.
//
// A critical section's wall-clock duration stretches as the clock drops,
// the synchronization line bounces across sockets, and contention degrades
// single-thread speed. Sections that stay below SpinThreshold are absorbed
// by adaptive spin-then-park synchronization with negligible spin cycles —
// this is why the paper measures PUPiL at fractions of a percent spin
// (Table 6). Sections that overrun the threshold turn the app's sibling
// threads into full-power spinners, and under oversubscription lock-holder
// preemption amplifies the dilation further — RAPL's 15-54% spin.
func Spin(p *workload.Profile, parEff, oversub, fRel float64, spanning bool) SpinState {
	if p.Sync != workload.SyncPolling || p.SerialFrac <= 0 {
		// Blocking synchronization still serializes (captured by the
		// profile's Sigma) but yields the CPU: no spin, no dilation
		// beyond USL.
		return SpinState{Frac: 0, RateMult: 1}
	}
	if fRel <= 0 {
		fRel = 1e-3
	}
	// Critical sections are part compute (scales with clock) and part
	// memory latency (does not), so throttling dilates them sub-linearly.
	freqStretch := 1 / (SpinFreqFloor + (1-SpinFreqFloor)*fRel)
	calm := freqStretch * (1 +
		math.Min(SpinContentionCost*(1-clamp01(parEff)), 3))
	if spanning {
		calm *= 1 + math.Min(SpinCrossScale*p.CrossKappa, 3)
	}
	// Heavy oversubscription degrades spin-then-park itself: wake-up
	// storms and convoying stretch sections, so it participates in the
	// ignition condition.
	base := calm
	if oversub > 1 {
		base *= 1 + SpinOversubStretch*math.Min(oversub-1, 3)
	}

	overrun := clamp01((base - SpinThreshold) / SpinThreshold)
	if overrun <= 0 {
		// Sections complete within the spin budget: waiters spin
		// briefly then park, burning no measurable cycles and leaving
		// the working thread a full core (so the oversubscription term
		// does not apply either).
		dilate := math.Max(calm, 1)
		wall := p.SerialFrac*dilate + (1 - p.SerialFrac)
		return SpinState{Frac: 0, RateMult: 1 / wall}
	}

	// Storm regime: waiters exhaust their spin budget and keep spinning;
	// under oversubscription they now time-share with (and preempt) the
	// working thread, dilating the section further.
	dilate := base
	if oversub > 1 {
		dilate *= 1 + SpinPreemptCost*overrun*clamp01(oversub-1)
	}
	wallSerial := p.SerialFrac * dilate
	wallParallel := 1 - p.SerialFrac
	frac := p.SerialFrac * (dilate - 1) / (wallSerial + wallParallel)
	if frac > MaxSpinFrac {
		frac = MaxSpinFrac
	}
	return SpinState{
		Frac:     frac,
		RateMult: 1 / (wallSerial + wallParallel),
	}
}

// SpinStealInto returns the fraction of system core-time lost to spin
// cycles, and writes each app's contribution into perApp (length must
// match spins), given each app's spin state and core allocation. Under
// oversubscription these stolen cycles would otherwise have run other
// apps' threads; the caller reduces other apps' capacity accordingly (an
// app's own spin cost is already captured by its serial-phase dilation, so
// it is not charged twice).
func SpinStealInto(perApp []float64, spins []SpinState, coreAlloc []float64, totalCores float64, apps []*workload.Instance) (total float64) {
	if len(perApp) != len(spins) {
		panic("sched: SpinStealInto storage length mismatch")
	}
	for i := range perApp {
		perApp[i] = 0
	}
	if totalCores <= 0 {
		return 0
	}
	for i, s := range spins {
		if s.Frac <= 0 || coreAlloc[i] <= 0 {
			continue
		}
		// While app i's serial phase runs, all but one of its
		// scheduled threads spin.
		occupied := coreAlloc[i] / totalCores
		spinners := occupied
		if apps[i].Threads > 0 {
			spinners = occupied * float64(apps[i].Threads-1) / float64(apps[i].Threads)
		}
		perApp[i] = s.Frac * spinners
		total += perApp[i]
	}
	return math.Min(total, MaxSpinFrac)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
