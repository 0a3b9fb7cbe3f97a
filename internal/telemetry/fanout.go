package telemetry

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Fanout broadcasts values to any number of subscribers, each behind its
// own bounded buffer. When a subscriber's buffer is full its oldest value
// is evicted to make room, so a slow or stalled consumer loses values
// instead of stalling the producer — the contract a simulation tick loop
// needs when streaming telemetry to network clients or to sinks.
//
// A fan-out built with a positive stall first waits up to that long for a
// full subscriber to take a value before evicting. A wait that times out
// marks the subscriber stalled: later publishes evict without waiting
// until one finds room again, so a wedged consumer costs its publishers
// one wait per stall rather than one per value.
type Fanout[T any] struct {
	stall time.Duration

	mu     sync.Mutex
	subs   []*Subscriber[T] // in registration order, the order Publish offers in
	closed bool

	// total counts drops across every subscriber, surviving Cancel — the
	// exporter's pupil_stream_dropped_total source.
	total atomic.Uint64

	// Rate-limited lagging-consumer warning, installed with SetLagWarn.
	warnMin  time.Duration
	warnFn   func(totalDropped uint64)
	lastWarn time.Time
}

// Subscriber receives published values over a bounded channel.
type Subscriber[T any] struct {
	f       *Fanout[T]
	ch      chan T
	dropped atomic.Uint64
	// stalled is set when a full-buffer wait times out and cleared by the
	// next send that finds room. Guarded by f.mu.
	stalled bool
}

// NewFanout returns an empty fan-out whose Publish waits at most stall on
// a full subscriber before evicting; 0 never waits.
func NewFanout[T any](stall time.Duration) *Fanout[T] {
	return &Fanout[T]{stall: stall}
}

// Subscribe registers a subscriber buffering at most buffer values
// (minimum 1). Subscribing to a closed fan-out yields a subscriber whose
// channel is already closed.
func (f *Fanout[T]) Subscribe(buffer int) *Subscriber[T] {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscriber[T]{f: f, ch: make(chan T, buffer)}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		close(sub.ch)
		return sub
	}
	f.subs = append(f.subs, sub)
	return sub
}

// Publish offers v to every subscriber in registration order and reports
// whether it was accepted; after Close it is a no-op returning false. A
// subscriber whose buffer is full has its oldest value dropped (and its
// drop counter incremented) to make room, after waiting up to the
// fan-out's stall for the subscriber to take one. The wait holds the
// fan-out lock, which is what orders every send before Cancel or Close
// closes the channel.
func (f *Fanout[T]) Publish(v T) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false
	}
	for _, sub := range f.subs {
		f.offer(sub, v)
	}
	return true
}

func (f *Fanout[T]) offer(sub *Subscriber[T], v T) {
	select {
	case sub.ch <- v:
		if sub.stalled { // write only on change: this runs on every send
			sub.stalled = false
		}
		return
	default:
	}
	if f.stall > 0 && !sub.stalled {
		t := time.NewTimer(f.stall)
		select {
		case sub.ch <- v:
			t.Stop()
			return
		case <-t.C:
			sub.stalled = true
		}
	}
	// Full: evict the oldest, then retry once. A concurrent receiver may
	// have drained the channel in between, in which case the eviction
	// select falls through and the send succeeds.
	select {
	case <-sub.ch:
		f.noteDrop(sub)
	default:
	}
	select {
	case sub.ch <- v:
	default:
		f.noteDrop(sub)
	}
}

// noteDrop accounts one value lost by sub and fires the lag warning at
// most once per warnMin. Called with f.mu held.
func (f *Fanout[T]) noteDrop(sub *Subscriber[T]) {
	sub.dropped.Add(1)
	n := f.total.Add(1)
	if f.warnFn == nil {
		return
	}
	now := time.Now()
	if now.Sub(f.lastWarn) < f.warnMin {
		return
	}
	f.lastWarn = now
	f.warnFn(n)
}

// TotalDropped reports values lost across every subscriber this fan-out
// ever had, including cancelled ones.
func (f *Fanout[T]) TotalDropped() uint64 { return f.total.Load() }

// SetLagWarn installs a callback fired (at most once per min) when a
// subscriber falls behind and loses a value; it receives the lifetime
// drop total. The callback runs on the publisher's goroutine under the
// fan-out lock and must not call back into the fan-out or block.
func (f *Fanout[T]) SetLagWarn(min time.Duration, fn func(totalDropped uint64)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.warnMin = min
	f.warnFn = fn
}

// Subscribers reports the number of active subscribers.
func (f *Fanout[T]) Subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Close closes every subscriber channel (after any buffered values are
// received) and marks the fan-out closed. Close is idempotent.
func (f *Fanout[T]) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	for _, sub := range f.subs {
		close(sub.ch)
	}
	f.subs = nil
}

// C is the subscriber's receive channel; it is closed when the fan-out is
// closed or the subscription cancelled.
func (sub *Subscriber[T]) C() <-chan T { return sub.ch }

// Dropped reports how many values this subscriber has lost to a full
// buffer.
func (sub *Subscriber[T]) Dropped() uint64 { return sub.dropped.Load() }

// Cancel removes the subscriber from its fan-out and closes its channel.
// Cancelling twice, or after the fan-out closed, is a no-op.
func (sub *Subscriber[T]) Cancel() {
	sub.f.mu.Lock()
	defer sub.f.mu.Unlock()
	i := slices.Index(sub.f.subs, sub)
	if i < 0 {
		return
	}
	sub.f.subs = slices.Delete(sub.f.subs, i, i+1)
	close(sub.ch)
}
