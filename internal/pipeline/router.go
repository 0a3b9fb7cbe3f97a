package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Router errors.
var (
	// ErrRouterClosed reports sink registration on a closed router.
	ErrRouterClosed = errors.New("pipeline: router closed")
	// ErrDuplicateSink reports a sink name registered twice.
	ErrDuplicateSink = errors.New("pipeline: duplicate sink name")
)

// Config tunes the router. The zero value selects the defaults.
type Config struct {
	// QueueSize bounds each sink's queue, in samples (default 8192). A
	// sink that falls further behind than this loses its oldest queued
	// samples, counted per sink.
	QueueSize int
	// BatchSize is how many samples a worker accumulates before writing
	// a batch to its sink (default 256).
	BatchSize int
	// FlushInterval bounds how long a partial batch may sit in a worker
	// before being written out anyway (default 250ms).
	FlushInterval time.Duration
}

// Defaults for Config's zero fields.
const (
	DefaultQueueSize     = 8192
	DefaultBatchSize     = 256
	DefaultFlushInterval = 250 * time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = DefaultQueueSize
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.BatchSize > c.QueueSize {
		c.BatchSize = c.QueueSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	return c
}

// Router fans published samples out to named sinks, each behind its own
// bounded queue drained by a dedicated worker goroutine in batches.
//
// Publish never blocks indefinitely on a sink: a full queue waits at most
// stallWait (100 ms) for the worker to take a sample, then evicts the
// oldest queued sample, counting the loss against the sink — the same
// lose-data-never-stall contract the stream fan-out gives slow
// subscribers. Once a wait times out the sink counts as stalled and later
// publishes evict without waiting, until its worker takes a sample again.
// Close stops intake (later publishes are counted no-ops, never panics),
// drains every queue in publish order, flushes each sink, and closes it.
type Router struct {
	cfg Config

	mu     sync.RWMutex // held for write only by AddSink/Close
	sinks  []*sinkWorker
	byName map[string]*sinkWorker
	closed bool
	wg     sync.WaitGroup

	collectors []Collector
	gatherBuf  []Sample
	stops      []func()

	published atomic.Uint64
	rejected  atomic.Uint64

	warnMin atomic.Int64 // nanoseconds between drop warnings
	warnFn  func(sink string, dropped uint64)
}

type sinkWorker struct {
	r     *Router
	name  string
	sink  Sink
	queue chan Sample

	written   atomic.Uint64
	dropped   atomic.Uint64
	batches   atomic.Uint64
	writeErrs atomic.Uint64
	lastWarn  atomic.Int64 // unix nanos of the last drop warning

	// stalled is set when a full-queue wait times out and cleared when the
	// worker next takes a sample, so a wedged sink costs its publishers one
	// wait per stall rather than one per sample.
	stalled atomic.Bool
}

// NewRouter returns a running router with no sinks.
func NewRouter(cfg Config) *Router {
	return &Router{
		cfg:    cfg.withDefaults(),
		byName: make(map[string]*sinkWorker),
	}
}

// AddSink registers a named sink and starts its worker. Names must be
// unique; registering on a closed router fails.
func (r *Router) AddSink(name string, sink Sink) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrRouterClosed
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateSink, name)
	}
	sw := &sinkWorker{r: r, name: name, sink: sink, queue: make(chan Sample, r.cfg.QueueSize)}
	r.sinks = append(r.sinks, sw)
	r.byName[name] = sw
	r.wg.Add(1)
	go sw.run(r.cfg)
	return nil
}

// SetDropWarn installs a rate-limited callback invoked (at most once per
// min, per sink) when a sink's queue overflows and samples are dropped.
// The callback runs on the publisher's goroutine and must not block.
func (r *Router) SetDropWarn(min time.Duration, fn func(sink string, dropped uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warnMin.Store(int64(min))
	r.warnFn = fn
}

// Publish offers one sample to every sink, waiting at most stallWait on a
// full sink queue before dropping, and reports whether the sample was
// accepted (false only after Close, when publishing becomes a counted
// no-op).
func (r *Router) Publish(s Sample) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		r.rejected.Add(1)
		return false
	}
	r.published.Add(1)
	for _, sw := range r.sinks {
		sw.offer(s)
	}
	return true
}

// PublishBatch offers each sample of the batch to every sink, in order.
// The batch slice is not retained: samples are copied into the queues, so
// callers may reuse it immediately.
func (r *Router) PublishBatch(batch []Sample) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		r.rejected.Add(uint64(len(batch)))
		return false
	}
	r.published.Add(uint64(len(batch)))
	for _, sw := range r.sinks {
		for _, s := range batch {
			sw.offer(s)
		}
	}
	return true
}

// stallWait bounds how long offer waits on a full queue for the worker to
// take a sample. The bound depends on the sink, not the scheduler: a live
// sink's worker takes its next sample well within it on any core count,
// so a sustained fast publisher sees zero drops, while a wedged sink costs
// its publishers one wait per stall.
const stallWait = 100 * time.Millisecond

// offer enqueues without ever blocking indefinitely: a full queue waits up
// to stallWait for the worker (skipped while the sink is stalled), then
// loses its oldest sample. Exactly one sample is lost per failed enqueue,
// counted against the sink.
func (sw *sinkWorker) offer(s Sample) {
	select {
	case sw.queue <- s:
		return
	default:
	}
	if !sw.stalled.Load() {
		t := time.NewTimer(stallWait)
		select {
		case sw.queue <- s:
			t.Stop()
			return
		case <-t.C:
			sw.stalled.Store(true)
		}
	}
	// Still full: evict the oldest queued sample to make room. A racing
	// publisher may refill the freed slot, in which case the new sample is
	// the one lost; either way the sink is down exactly one sample.
	select {
	case <-sw.queue:
	default:
	}
	select {
	case sw.queue <- s:
	default:
	}
	sw.dropped.Add(1)
	sw.noteDrop()
}

func (sw *sinkWorker) noteDrop() {
	fn := sw.r.warnFn
	if fn == nil {
		return
	}
	now := time.Now().UnixNano()
	last := sw.lastWarn.Load()
	if now-last < sw.r.warnMin.Load() {
		return
	}
	if sw.lastWarn.CompareAndSwap(last, now) {
		fn(sw.name, sw.dropped.Load())
	}
}

// run drains the worker's queue into batches: a batch is written when it
// reaches BatchSize or when the flush interval elapses with samples
// pending. After Close the queue's remaining samples are drained in
// order and written as the final batches.
func (sw *sinkWorker) run(cfg Config) {
	defer sw.r.wg.Done()
	ticker := time.NewTicker(cfg.FlushInterval)
	defer ticker.Stop()
	batch := make([]Sample, 0, cfg.BatchSize)
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
	for {
		select {
		case s, ok := <-sw.queue:
			if !ok {
				write()
				return
			}
			if sw.stalled.Load() {
				sw.stalled.Store(false)
			}
			batch = append(batch, s)
			if len(batch) >= cfg.BatchSize {
				write()
			}
		case <-ticker.C:
			write()
		}
	}
}

// AddCollector registers a pull source for Gather and CollectEvery.
func (r *Router) AddCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather runs every registered collector once and publishes the samples,
// returning how many were published. Collectors run serially under the
// router's registration lock.
func (r *Router) Gather() int {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0
	}
	buf := r.gatherBuf[:0]
	for _, c := range r.collectors {
		buf = c.Collect(buf)
	}
	r.gatherBuf = buf
	r.mu.Unlock()
	if len(buf) == 0 {
		return 0
	}
	r.PublishBatch(buf)
	return len(buf)
}

// CollectEvery gathers all registered collectors every d until the
// returned stop function is called or the router closes.
func (r *Router) CollectEvery(d time.Duration) (stop func()) {
	done := make(chan struct{})
	var once sync.Once
	// Close calls the same stopper, so both paths share the once.
	stop = func() { once.Do(func() { close(done) }) }
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return func() {}
	}
	r.stops = append(r.stops, stop)
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Gather()
			}
		}
	}()
	return stop
}

// Close shuts the router down in flush order: intake stops (concurrent
// and later publishes become counted no-ops), every queue is closed and
// its remaining samples drained to the sink in publish order, then each
// sink is flushed and closed. The first sink error is returned. Close is
// idempotent.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return nil
	}
	r.closed = true
	for _, stop := range r.stops {
		stop()
	}
	r.stops = nil
	sinks := r.sinks
	// Queues close under the write lock: no publisher can hold the read
	// lock here, so offer never races a send against a closed channel.
	for _, sw := range sinks {
		close(sw.queue)
	}
	r.mu.Unlock()
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
	// the publishers by more than QueueSize.
	Dropped uint64 `json:"dropped"`
	// WriteErrors counts batches the sink rejected with an error.
	WriteErrors uint64 `json:"write_errors"`
}

// Stats reports per-sink accounting in registration order.
func (r *Router) Stats() []SinkStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]SinkStats, len(r.sinks))
	for i, sw := range r.sinks {
		out[i] = SinkStats{
			Name:        sw.name,
			Written:     sw.written.Load(),
			Batches:     sw.batches.Load(),
			Dropped:     sw.dropped.Load(),
			WriteErrors: sw.writeErrs.Load(),
		}
	}
	return out
}

// Published reports how many samples the router has accepted.
func (r *Router) Published() uint64 { return r.published.Load() }

// Rejected reports samples offered after Close.
func (r *Router) Rejected() uint64 { return r.rejected.Load() }

// Dropped sums every sink's queue-overflow losses.
func (r *Router) Dropped() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total uint64
	for _, sw := range r.sinks {
		total += sw.dropped.Load()
	}
	return total
}

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
