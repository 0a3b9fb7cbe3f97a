package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pupil/internal/telemetry"
)

// Router errors.
var (
	// ErrRouterClosed reports sink registration on a closed router.
	ErrRouterClosed = errors.New("pipeline: router closed")
	// ErrDuplicateSink reports a sink name registered twice.
	ErrDuplicateSink = errors.New("pipeline: duplicate sink name")
)

// Router tuning, the same for every sink.
const (
	// queueSize bounds each sink's queue, in samples. A sink that falls
	// further behind than this loses its oldest queued samples, counted
	// per sink.
	queueSize = 8192
	// batchSize is how many samples a worker accumulates before writing a
	// batch to its sink.
	batchSize = 256
	// flushInterval bounds how long a partial batch may sit in a worker
	// before being written out anyway.
	flushInterval = 250 * time.Millisecond
	// stallWait bounds how long Publish waits on a full sink queue for its
	// worker to take a sample. The bound depends on the sink, not the
	// scheduler: a live sink's worker takes its next sample well within it
	// on any core count, so a sustained fast publisher sees zero drops,
	// while a wedged sink costs its publishers one wait per stall.
	stallWait = 100 * time.Millisecond
)

// Router fans published samples out to named sinks. Each sink subscribes
// to one telemetry.Fanout with its own bounded queue, drained by a
// dedicated worker goroutine in batches.
//
// Publish never blocks indefinitely on a sink: a full queue waits at most
// stallWait for the worker to take a sample, then evicts the oldest queued
// sample, counting the loss against the sink — the fan-out's
// lose-data-never-stall contract, shared with stream subscribers. Close
// stops intake (later publishes are no-ops, never panics), drains every
// queue in publish order, flushes each sink, and closes it.
type Router struct {
	fan       *telemetry.Fanout[Sample]
	published atomic.Uint64

	mu     sync.Mutex // guards sinks and closed, which refuses late AddSinks
	sinks  []*sinkWorker
	closed bool
	wg     sync.WaitGroup
}

type sinkWorker struct {
	name string
	sink Sink
	sub  *telemetry.Subscriber[Sample]

	written   atomic.Uint64
	batches   atomic.Uint64
	writeErrs atomic.Uint64
}

// NewRouter returns a running router with no sinks.
func NewRouter() *Router {
	return &Router{fan: telemetry.NewFanout[Sample](stallWait)}
}

// AddSink registers a named sink and starts its worker. Names must be
// unique; registering on a closed router fails.
func (r *Router) AddSink(name string, sink Sink) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRouterClosed
	}
	for _, sw := range r.sinks {
		if sw.name == name {
			return fmt.Errorf("%w: %q", ErrDuplicateSink, name)
		}
	}
	sw := &sinkWorker{name: name, sink: sink, sub: r.fan.Subscribe(queueSize)}
	r.sinks = append(r.sinks, sw)
	r.wg.Add(1)
	go sw.run(&r.wg)
	return nil
}

// SetDropWarn installs a rate-limited callback invoked (at most once per
// min) when a sink's queue overflows and samples are dropped; it receives
// the drop total across every sink. The callback runs on the publisher's
// goroutine under the fan-out lock and must not block or call back into
// the router.
func (r *Router) SetDropWarn(min time.Duration, fn func(dropped uint64)) {
	r.fan.SetLagWarn(min, fn)
}

// Publish offers one sample to every sink, waiting at most stallWait on a
// full sink queue before dropping, and reports whether the sample was
// accepted (false only after Close, when publishing becomes a no-op).
func (r *Router) Publish(s Sample) bool {
	if !r.fan.Publish(s) {
		return false
	}
	r.published.Add(1)
	return true
}

// PublishBatch publishes each sample of the batch in order, stopping at
// the first one refused. The batch slice is not retained: samples are
// copied into the queues, so callers may reuse it immediately.
func (r *Router) PublishBatch(batch []Sample) bool {
	for _, s := range batch {
		if !r.Publish(s) {
			return false
		}
	}
	return true
}

// run drains the worker's queue into batches: a batch is written when it
// reaches batchSize or when the flush interval elapses with samples
// pending. After Close the queue's remaining samples are drained in
// order and written as the final batches.
func (sw *sinkWorker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(flushInterval)
	defer ticker.Stop()
	batch := make([]Sample, 0, batchSize)
	write := func() {
		if len(batch) == 0 {
			return
		}
		if err := sw.sink.Write(batch); err != nil {
			sw.writeErrs.Add(1)
		} else {
			sw.written.Add(uint64(len(batch)))
			sw.batches.Add(1)
		}
		batch = batch[:0]
	}
	queue := sw.sub.C()
	for {
		select {
		case s, ok := <-queue:
			if !ok {
				write()
				return
			}
			batch = append(batch, s)
			if len(batch) >= batchSize {
				write()
			}
		case <-ticker.C:
			write()
		}
	}
}

// Close shuts the router down in flush order: intake stops (concurrent
// and later publishes become no-ops), every queue is closed and its
// remaining samples drained to the sink in publish order, then each sink
// is flushed and closed. The first sink error is returned. Close is
// idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	sinks := r.sinks
	r.mu.Unlock()
	r.fan.Close()
	r.wg.Wait()
	var first error
	for _, sw := range sinks {
		if err := sw.sink.Flush(); err != nil && first == nil {
			first = err
		}
		if err := sw.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SinkStats is one sink's lifetime accounting.
type SinkStats struct {
	// Name is the sink's registration name.
	Name string `json:"sink"`
	// Written counts samples successfully handed to the sink; Batches
	// counts the Write calls that carried them.
	Written uint64 `json:"written"`
	Batches uint64 `json:"batches"`
	// Dropped counts samples lost to a full queue — the sink fell behind
	// the publishers by more than its queue holds.
	Dropped uint64 `json:"dropped"`
	// WriteErrors counts batches the sink rejected with an error.
	WriteErrors uint64 `json:"write_errors"`
}

// Stats reports per-sink accounting in registration order.
func (r *Router) Stats() []SinkStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SinkStats, len(r.sinks))
	for i, sw := range r.sinks {
		out[i] = SinkStats{
			Name:        sw.name,
			Written:     sw.written.Load(),
			Batches:     sw.batches.Load(),
			Dropped:     sw.sub.Dropped(),
			WriteErrors: sw.writeErrs.Load(),
		}
	}
	return out
}

// Published reports how many samples the router has accepted.
func (r *Router) Published() uint64 { return r.published.Load() }

// Dropped sums every sink's queue-overflow losses.
func (r *Router) Dropped() uint64 { return r.fan.TotalDropped() }

// StatsCollector exposes the router's own accounting as metric families:
// pupil_pipeline_published_total, plus per-sink written/dropped counters
// labeled sink="<name>".
func (r *Router) StatsCollector() Collector { return routerStats{r} }

type routerStats struct{ r *Router }

func (routerStats) Families() []MetricFamily {
	return []MetricFamily{
		{Name: "pupil_pipeline_published_total", Help: "Samples accepted by the telemetry router.", Kind: Counter},
		{Name: "pupil_pipeline_written_total", Help: "Samples written to a telemetry sink.", Kind: Counter},
		{Name: "pupil_pipeline_dropped_total", Help: "Samples dropped by a lagging telemetry sink queue.", Kind: Counter},
	}
}

func (c routerStats) Collect(out []Sample) []Sample {
	out = append(out, Sample{Family: "pupil_pipeline_published_total", Value: float64(c.r.Published())})
	for _, st := range c.r.Stats() {
		out = append(out, Sample{Family: "pupil_pipeline_written_total", Sink: st.Name, Value: float64(st.Written)})
	}
	for _, st := range c.r.Stats() {
		out = append(out, Sample{Family: "pupil_pipeline_dropped_total", Sink: st.Name, Value: float64(st.Dropped)})
	}
	return out
}
