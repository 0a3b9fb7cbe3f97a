package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memSink records every sample it is handed, in write order, optionally
// blocking each Write until released — the observer for ordering, loss,
// and backpressure tests.
type memSink struct {
	mu      sync.Mutex
	samples []Sample
	flushes int
	closes  int

	block   chan struct{} // when non-nil, Write blocks until closed
	failure error         // when non-nil, Write returns it
}

func (m *memSink) Write(batch []Sample) error {
	if m.block != nil {
		<-m.block
	}
	if m.failure != nil {
		return m.failure
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples = append(m.samples, batch...)
	return nil
}

func (m *memSink) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushes++
	return nil
}

func (m *memSink) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closes++
	return nil
}

func (m *memSink) got() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.samples...)
}

// TestRouterCloseFlushesQueuedBatches is the shutdown contract: every
// sample accepted before Close reaches the sink, in publish order, and
// the sink is flushed then closed exactly once.
func TestRouterCloseFlushesQueuedBatches(t *testing.T) {
	sink := &memSink{}
	r := NewRouter()
	if err := r.AddSink("mem", sink); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if !r.Publish(Sample{Family: "f", Value: float64(i)}) {
			t.Fatalf("Publish %d rejected before Close", i)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.got()
	if len(got) != n {
		t.Fatalf("sink received %d samples, want %d (dropped=%d)", len(got), n, r.Dropped())
	}
	for i, s := range got {
		if s.Value != float64(i) {
			t.Fatalf("sample %d out of order: value %g", i, s.Value)
		}
	}
	if sink.flushes != 1 || sink.closes != 1 {
		t.Errorf("flushes=%d closes=%d, want 1/1", sink.flushes, sink.closes)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
}

// TestRouterPublishAfterClose: publishing to a closed router must never
// panic — it is a no-op that publishes nothing.
func TestRouterPublishAfterClose(t *testing.T) {
	r := NewRouter()
	if err := r.AddSink("mem", &memSink{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Publish(Sample{Family: "f"}) {
		t.Error("Publish accepted after Close")
	}
	if r.PublishBatch([]Sample{{Family: "f"}, {Family: "g"}}) {
		t.Error("PublishBatch accepted after Close")
	}
	if got := r.Published(); got != 0 {
		t.Errorf("Published = %d after publishing only to a closed router, want 0", got)
	}
	if err := r.AddSink("late", &memSink{}); !errors.Is(err, ErrRouterClosed) {
		t.Errorf("AddSink after Close: err = %v, want ErrRouterClosed", err)
	}
	// Idempotent.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterConcurrentPublishDuringClose races publishers against Close
// under -race: no send-on-closed-channel panic, and accounting stays
// consistent (accepted = delivered + dropped).
func TestRouterConcurrentPublishDuringClose(t *testing.T) {
	sink := &memSink{}
	r := NewRouter()
	if err := r.AddSink("mem", sink); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 500; i++ {
				r.Publish(Sample{Family: "f", Value: float64(i)})
			}
		}()
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	delivered := uint64(len(sink.got()))
	if r.Published() != delivered+r.Dropped() {
		t.Errorf("published %d != delivered %d + dropped %d", r.Published(), delivered, r.Dropped())
	}
}

// TestRouterSlowSinkDropsNotBlocks: with a sink wedged inside Write, the
// publisher must keep running at full speed, losing samples to the
// bounded queue — counted, never blocking.
func TestRouterSlowSinkDropsNotBlocks(t *testing.T) {
	release := make(chan struct{})
	sink := &memSink{block: release}
	r := NewRouter()
	if err := r.AddSink("slow", sink); err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			r.Publish(Sample{Family: "f", Value: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked behind a wedged sink")
	}
	if r.Dropped() == 0 {
		t.Error("expected drops against a wedged sink, got none")
	}
	close(release)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	delivered := uint64(len(sink.got()))
	if delivered+r.Dropped() != n {
		t.Errorf("delivered %d + dropped %d != published %d", delivered, r.Dropped(), n)
	}
	stats := r.Stats()
	if len(stats) != 1 || stats[0].Name != "slow" || stats[0].Dropped != r.Dropped() {
		t.Errorf("Stats = %+v, want sink %q carrying the drop count", stats, "slow")
	}
}

// TestRouterThroughputNoDrops is the acceptance bar: a single publisher
// pushing 100k samples through the default configuration loses nothing.
func TestRouterThroughputNoDrops(t *testing.T) {
	sink := &memSink{}
	r := NewRouter()
	if err := r.AddSink("mem", sink); err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	batch := make([]Sample, 100)
	for i := 0; i < n/len(batch); i++ {
		for j := range batch {
			batch[j] = Sample{Family: "pupil_power_watts", Node: "n1", Value: float64(i)}
		}
		r.PublishBatch(batch)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped %d of %d samples at default config", r.Dropped(), n)
	}
	if got := len(sink.got()); got != n {
		t.Fatalf("sink received %d, want %d", got, n)
	}
}

// TestRouterDropWarnRateLimited: thousands of drops in one burst fire the
// warning once per rate-limit window.
func TestRouterDropWarnRateLimited(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var warns atomic.Int64
	r := NewRouter()
	r.SetDropWarn(time.Hour, func(dropped uint64) {
		if dropped == 0 {
			panic(fmt.Sprintf("warn(%d)", dropped))
		}
		warns.Add(1)
	})
	if err := r.AddSink("slow", &memSink{block: release}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ { // past the 8192-sample queue and a 256-sample batch
		r.Publish(Sample{Family: "f"})
	}
	if r.Dropped() < 2 {
		t.Fatalf("Dropped = %d, want a burst", r.Dropped())
	}
	if got := warns.Load(); got != 1 {
		t.Errorf("warn fired %d times for one burst, want 1", got)
	}
}

// TestRouterWriteErrorsCounted: a failing sink is accounted, not fatal.
func TestRouterWriteErrorsCounted(t *testing.T) {
	sink := &memSink{failure: errors.New("disk full")}
	r := NewRouter()
	if err := r.AddSink("bad", sink); err != nil {
		t.Fatal(err)
	}
	r.Publish(Sample{Family: "f"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()[0]
	if st.WriteErrors == 0 {
		t.Error("write error not counted")
	}
	if st.Written != 0 {
		t.Errorf("Written = %d for an always-failing sink", st.Written)
	}
}

func TestRouterDuplicateSinkName(t *testing.T) {
	r := NewRouter()
	defer r.Close()
	if err := r.AddSink("a", &memSink{}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddSink("a", &memSink{}); !errors.Is(err, ErrDuplicateSink) {
		t.Errorf("err = %v, want ErrDuplicateSink", err)
	}
}

// TestRouterStatsCollector renders the router's own accounting.
func TestRouterStatsCollector(t *testing.T) {
	r := NewRouter()
	if err := r.AddSink("mem", &memSink{}); err != nil {
		t.Fatal(err)
	}
	r.Publish(Sample{Family: "f"})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got := r.StatsCollector().Collect(nil)
	want := map[string]float64{
		"pupil_pipeline_published_total": 1,
		"pupil_pipeline_written_total":   1,
		"pupil_pipeline_dropped_total":   0,
	}
	if len(got) != len(want) {
		t.Fatalf("stats samples = %+v", got)
	}
	for _, s := range got {
		if s.Value != want[s.Family] {
			t.Errorf("%s = %g, want %g", s.Family, s.Value, want[s.Family])
		}
		if s.Family != "pupil_pipeline_published_total" && s.Sink != "mem" {
			t.Errorf("%s missing sink label: %+v", s.Family, s)
		}
	}
}
