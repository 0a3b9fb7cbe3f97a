package sim

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"
)

// World is the ground-truth system the kernel advances: at each physics
// tick the kernel calls Step, and the world integrates progress and energy
// for the elapsed dt.
type World interface {
	Step(now, dt time.Duration)
}

// Ticker is a periodic activity layered on top of the world: a telemetry
// sampler, the RAPL firmware loop, or a power-capping controller. Tick fires
// whenever simulated time crosses a multiple of Period.
type Ticker interface {
	Period() time.Duration
	Tick(now time.Duration)
}

// Runner advances a World and a set of Tickers through simulated time.
// Tickers fire in registration order at every multiple of their period,
// after the physics step for that instant, which makes runs reproducible:
// sensors (registered first) always observe state before controllers
// (registered later) act on it.
type Runner struct {
	Clock   *Clock
	World   World
	tickers []scheduled
}

// scheduled is one registered ticker with its period rounded up to the
// kernel Tick and its next firing time, cached so the kernel loop compares
// instead of computing a modulo per ticker per tick.
type scheduled struct {
	t       Ticker
	period  time.Duration
	nextDue time.Duration
}

// NewRunner returns a runner over world with a fresh clock.
func NewRunner(world World) *Runner {
	return &Runner{Clock: &Clock{}, World: world}
}

// Register adds tickers, in order; one call grows the schedule once, so a
// caller that registers a whole node at once allocates it once. Periods
// are rounded up to the kernel Tick; a non-positive period panics because
// a ticker that never fires (or fires infinitely often) is a configuration
// bug.
func (r *Runner) Register(ts ...Ticker) {
	// First firing: the next multiple of the period strictly after the
	// current time (the kernel never fires tickers at t=0).
	now := time.Duration(0)
	if r.Clock != nil {
		now = r.Clock.Now()
	}
	r.tickers = slices.Grow(r.tickers, len(ts))
	for _, t := range ts {
		p := t.Period()
		if p <= 0 {
			panic(fmt.Sprintf("sim: ticker with non-positive period %v", p))
		}
		if rem := p % Tick; rem != 0 {
			p += Tick - rem
		}
		r.tickers = append(r.tickers, scheduled{t: t, period: p, nextDue: (now/p + 1) * p})
	}
}

// Run advances the simulation by d. The world steps once per kernel Tick,
// then every ticker whose period divides the new time fires.
func (r *Runner) Run(d time.Duration) {
	_ = r.run(nil, d)
}

// RunContext advances the simulation by d like Run, but aborts between
// kernel ticks once ctx is cancelled and returns the context's error — the
// hook that lets a cancelled or failed sweep stop a simulation mid-run
// instead of finishing the cell.
func (r *Runner) RunContext(ctx context.Context, d time.Duration) error {
	return r.run(ctx, d)
}

// run is the kernel loop. A nil ctx (Run) is never cancelled.
//
// Between two ticker firings only the world changes, so the loop steps it
// tick by tick straight to the earliest nextDue (or the end of the run)
// without looking at the tickers, and checks the context once per such
// stretch: a ticker is what cancels (a controller, a sweep's failed cell),
// so the first check after its firing sees it before the kernel advances
// further.
//
// The check is a non-blocking receive on ctx.Done(), taken once per call,
// and ctx.Err() is read only after that channel has closed: a cancellable
// context's Err locks the context's mutex, and all workers of a sweep share
// one context, so an Err per check would contend that mutex across the
// workers. A nil Done channel (a nil or never-cancelled ctx) never becomes
// ready.
func (r *Runner) run(ctx context.Context, d time.Duration) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	now := r.Clock.Now()
	end := now + d
	next := r.nextDue()
	for now < end {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		stop := min(next, end)
		for now < stop {
			r.Clock.Advance(Tick)
			now = r.Clock.Now()
			if r.World != nil {
				r.World.Step(now, Tick)
			}
		}
		if now < next {
			continue
		}
		for i := range r.tickers {
			if st := &r.tickers[i]; now >= st.nextDue {
				st.nextDue = now + st.period
				st.t.Tick(now)
			}
		}
		next = r.nextDue()
	}
	return nil
}

// nextDue is the earliest time any ticker fires next; with no tickers it
// never comes.
func (r *Runner) nextDue() time.Duration {
	next := time.Duration(math.MaxInt64)
	for i := range r.tickers {
		next = min(next, r.tickers[i].nextDue)
	}
	return next
}
