package server

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pupil/internal/pipeline"
	"pupil/internal/telemetry"
)

// The live runtime is the lifecycle machine every served resource shares.
// One supervised goroutine ticks the resource, paced against the wall
// clock or free-running; a mutex serializes ticks against mutations; a
// narrow second mutex guards the published status view that reads are
// served from; and each tick's sample fans out to stream subscribers and
// the manager's telemetry router. A Node is a live driver session, a
// Cluster a live fleet coordinator.

// resource is what one kind of live resource supplies to the runtime.
// step, snapshot and publish run under the runtime's lock; families runs
// on the tick goroutine after the lock is released.
type resource[S any] interface {
	// step advances one tick and returns its sample, stamped with epoch,
	// and the simulated time reached. An error fails the resource.
	step(epoch uint64) (S, time.Duration, error)
	// snapshot refreshes the kind's view of its state after a mutation.
	snapshot()
	// publish copies that view into the published status; the runtime
	// holds pubMu.
	publish()
	// families appends the sample's telemetry pipeline samples to b.
	families(b []pipeline.Sample, smp S) []pipeline.Sample
}

// live runs one resource whose ticks produce samples of type S.
type live[S any] struct {
	res resource[S]
	// what names the kind in errors and logs; source names what a
	// recovered panic escaped from.
	what, source string
	id           string
	tickSim      time.Duration // simulated time per tick
	tickReal     time.Duration // wall-clock tick interval; 0 free-runs
	maxSim       time.Duration // stop after this much simulated time; 0 never

	mu         sync.Mutex // serializes ticks and mutations; guards state, failReason and the kind's own state
	state      State
	failReason string

	// pubMu guards the published status view — pubState, pubFail and the
	// kind's published fields — that Status serves without waiting on mu,
	// so status reads and /metrics scrapes never queue behind a tick: a
	// free-running node holds mu almost continuously, and a fleet-scale
	// cluster epoch holds it for hundreds of milliseconds. advance
	// refreshes the view once per tick and mutations on apply.
	pubMu    sync.Mutex
	pubState State
	pubFail  string

	epoch  atomic.Uint64
	fan    *telemetry.Fanout[S]
	cancel context.CancelFunc
	done   chan struct{}

	// router is the manager's telemetry pipeline (nil while detached);
	// pubBuf is the reused per-tick publish batch — PublishBatch copies
	// samples into the sink queues, so reuse is safe.
	router *pipeline.Router
	pubBuf []pipeline.Sample
}

// pace converts a configured interval in milliseconds, falling back to def
// when unset.
func pace(ms int, def time.Duration) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return def
}

// setup readies the runtime for a freshly built resource and publishes its
// initial status before the resource becomes reachable through the
// registry, so a racing reader never sees a zero view.
func (l *live[S]) setup(res resource[S], what, source string, tickSim, tickReal time.Duration, freeRun bool, maxSimS float64) {
	l.res, l.what, l.source = res, what, source
	l.tickSim, l.tickReal = tickSim, tickReal
	if freeRun {
		l.tickReal = 0
	}
	l.maxSim = time.Duration(maxSimS * float64(time.Second))
	l.state = StateRunning
	l.fan = telemetry.NewFanout[S](0)
	l.done = make(chan struct{})
	res.snapshot()
	l.publishStatus()
}

// ID returns the manager-assigned ID.
func (l *live[S]) ID() string { return l.id }

// Epoch returns how many ticks have run.
func (l *live[S]) Epoch() uint64 { return l.epoch.Load() }

// Done is closed when the tick loop has exited.
func (l *live[S]) Done() <-chan struct{} { return l.done }

// StreamDropped counts samples lost across every stream subscriber this
// resource ever had.
func (l *live[S]) StreamDropped() uint64 { return l.fan.TotalDropped() }

// Subscribe registers a stream subscriber with the given ring-buffer
// capacity; its channel closes when the resource stops. A resource that is
// no longer running has no samples left to send, so subscribing to it
// fails with ErrNotRunning. It takes the tick lock, which also guards the
// state, so registration is ordered against the publish: a cluster sample
// built while no subscriber existed aliases reused buffers, and must never
// reach a ring that outlives the tick.
func (l *live[S]) Subscribe(buffer int) (*telemetry.Subscriber[S], error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateRunning {
		return nil, fmt.Errorf("%w: %s %s is %s", ErrNotRunning, l.what, l.id, l.state)
	}
	return l.fan.Subscribe(buffer), nil
}

// StepOnce advances a detached resource one tick synchronously and reports
// whether it is still running — the deterministic entry point for tests
// and the perf harness.
func (l *live[S]) StepOnce() bool { return l.tick() }

// tick advances one tick, then routes its sample through the telemetry
// pipeline outside the lock. It reports whether the loop should continue.
func (l *live[S]) tick() bool {
	smp, publish, cont := l.advance()
	if publish && l.router != nil {
		l.pubBuf = l.res.families(l.pubBuf[:0], smp)
		l.router.PublishBatch(l.pubBuf)
	}
	return cont
}

// advance runs one locked tick and fans its sample out to the stream
// subscribers. A panic escaping the resource (a controller, model or
// policy blowing up mid-tick) marks only this resource failed — with its
// last coherent status still queryable — instead of crashing the daemon
// and every other resource with it.
func (l *live[S]) advance() (smp S, publish, cont bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Registered after Unlock, so this recover runs first, still holding
	// the lock the failure state is written under.
	defer func() {
		if r := recover(); r != nil {
			l.fail(fmt.Sprintf("%s panic: %v", l.source, r), debug.Stack())
			publish, cont = false, false
		}
	}()
	if l.state != StateRunning {
		return smp, false, false
	}
	smp, now, err := l.res.step(l.epoch.Load() + 1)
	if err != nil {
		l.fail(fmt.Sprintf("%s step: %v", l.what, err), nil)
		return smp, false, false
	}
	l.epoch.Add(1)
	if l.maxSim > 0 && now >= l.maxSim {
		l.state = StateDone
	}
	l.publishStatus()
	l.fan.Publish(smp)
	return smp, true, l.state == StateRunning
}

// fail marks the resource failed. Callers hold l.mu.
func (l *live[S]) fail(reason string, stack []byte) {
	l.state = StateFailed
	l.failReason = reason
	log.Printf("server: %s %s failed: %s\n%s", l.what, l.id, reason, stack)
	l.publishState()
}

// run is the tick loop. Ticks are decoupled from wall-clock progress: each
// advances tickSim of simulated time, paced every tickReal of real time,
// or back-to-back when free-running.
func (l *live[S]) run(ctx context.Context) {
	defer close(l.done)
	defer l.fan.Close()
	var tickC <-chan time.Time
	if l.tickReal > 0 {
		t := time.NewTicker(l.tickReal)
		defer t.Stop()
		tickC = t.C
	}
	for ctx.Err() == nil {
		if tickC == nil {
			// Free-running: yield between ticks. Without this, each
			// free-running loop is a CPU-bound goroutine the scheduler only
			// preempts every ~10ms, and on small hosts every API handler
			// queues behind those slices — the load harness measured a
			// ~80ms latency floor across all endpoint classes from two such
			// nodes on one core.
			runtime.Gosched()
		} else {
			select {
			case <-ctx.Done():
				continue
			case <-tickC:
			}
		}
		if !l.tick() {
			return
		}
	}
	l.setState(StateStopped)
}

// setState moves a running resource to s.
func (l *live[S]) setState(s State) {
	l.mu.Lock()
	if l.state == StateRunning {
		l.state = s
	}
	l.publishState()
	l.mu.Unlock()
}

// publishStatus refreshes the whole published view from the kind's
// current snapshot. Callers hold l.mu, or solely own the resource while
// building it.
func (l *live[S]) publishStatus() {
	l.pubMu.Lock()
	l.pubState, l.pubFail = l.state, l.failReason
	l.res.publish()
	l.pubMu.Unlock()
}

// publishState refreshes only the state and failure reason, leaving the
// last coherent snapshot in place — a failed or stopped resource's "still
// queryable" guarantee. Callers hold l.mu.
func (l *live[S]) publishState() {
	l.pubMu.Lock()
	l.pubState, l.pubFail = l.state, l.failReason
	l.pubMu.Unlock()
}

// mutate applies fn to a running resource under the tick lock, then
// refreshes the snapshot and republishes, so the change is visible to
// status reads before the next tick runs.
func (l *live[S]) mutate(fn func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateRunning {
		return fmt.Errorf("%w: %s %s is %s", ErrNotRunning, l.what, l.id, l.state)
	}
	if err := fn(); err != nil {
		return err
	}
	l.res.snapshot()
	l.publishStatus()
	return nil
}

// attach names a registered resource, wires it to the manager's router,
// and keeps the cancel that stops its tick loop.
func (l *live[S]) attach(id string, router *pipeline.Router, cancel context.CancelFunc) {
	l.id, l.router, l.cancel = id, router, cancel
	l.fan.SetLagWarn(5*time.Second, func(total uint64) {
		log.Printf("server: %s %s stream subscriber lagging; %d samples dropped so far", l.what, id, total)
	})
}

// stop cancels the tick loop and waits for it to exit.
func (l *live[S]) stop() {
	l.cancel()
	<-l.done
}

// runner is the part of the live runtime the registry drives.
type runner interface {
	attach(id string, router *pipeline.Router, cancel context.CancelFunc)
	run(ctx context.Context)
	stop()
}

// registry holds the manager's live resources of one kind: IDs assigned
// in creation order, lookups under a read lock so concurrent status reads
// and scrapes never serialize against each other, and lifetime counters
// for the exporter.
type registry[T runner] struct {
	prefix string

	mu     sync.RWMutex
	items  map[string]T
	order  []string // creation order, for stable listings
	nextID int
	closed bool

	created atomic.Uint64
	deleted atomic.Uint64
}

// add registers item under a fresh ID and starts its tick loop as one of
// the manager's supervised goroutines.
func (r *registry[T]) add(m *Manager, item T) (T, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		var zero T
		return zero, ErrClosed
	}
	r.nextID++
	id := fmt.Sprintf("%s%d", r.prefix, r.nextID)
	ctx, cancel := context.WithCancel(m.ctx)
	item.attach(id, m.router, cancel)
	if r.items == nil {
		r.items = make(map[string]T)
	}
	r.items[id] = item
	r.order = append(r.order, id)
	m.wg.Add(1)
	r.mu.Unlock()

	r.created.Add(1)
	go func() {
		defer m.wg.Done()
		item.run(ctx)
	}()
	return item, nil
}

func (r *registry[T]) get(id string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	item, ok := r.items[id]
	return item, ok
}

func (r *registry[T]) list() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.items[id])
	}
	return out
}

func (r *registry[T]) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.items)
}

// remove unregisters a resource, stops its tick loop, and waits for it to
// drain.
func (r *registry[T]) remove(id string) error {
	r.mu.Lock()
	item, ok := r.items[id]
	if ok {
		delete(r.items, id)
		r.order = slices.DeleteFunc(r.order, func(v string) bool { return v == id })
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	item.stop()
	r.deleted.Add(1)
	return nil
}

// close refuses further adds.
func (r *registry[T]) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}
