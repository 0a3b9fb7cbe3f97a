package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestFanoutDeliversInOrder(t *testing.T) {
	f := NewFanout[int](0)
	a, b := f.Subscribe(8), f.Subscribe(8)
	for i := 0; i < 5; i++ {
		f.Publish(i)
	}
	f.Close()
	for name, sub := range map[string]*Subscriber[int]{"a": a, "b": b} {
		var got []int
		for v := range sub.C() {
			got = append(got, v)
		}
		if len(got) != 5 {
			t.Fatalf("subscriber %s got %v, want 0..4", name, got)
		}
		for i, v := range got {
			if v != i {
				t.Errorf("subscriber %s got[%d] = %d", name, i, v)
			}
		}
		if sub.Dropped() != 0 {
			t.Errorf("subscriber %s dropped %d with room to spare", name, sub.Dropped())
		}
	}
}

// A slow subscriber loses the oldest samples but keeps the newest — and
// never blocks Publish.
func TestFanoutDropsOldestWhenFull(t *testing.T) {
	f := NewFanout[int](0)
	sub := f.Subscribe(3)
	for i := 0; i < 10; i++ {
		f.Publish(i) // must not block despite nobody reading
	}
	f.Close()
	var got []int
	for v := range sub.C() {
		got = append(got, v)
	}
	want := []int{7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if sub.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", sub.Dropped())
	}
}

func TestFanoutCancelAndClose(t *testing.T) {
	f := NewFanout[int](0)
	sub := f.Subscribe(1)
	if f.Subscribers() != 1 {
		t.Fatalf("Subscribers = %d, want 1", f.Subscribers())
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if f.Subscribers() != 0 {
		t.Fatalf("Subscribers after cancel = %d, want 0", f.Subscribers())
	}
	if _, ok := <-sub.C(); ok {
		t.Error("cancelled subscriber channel still open")
	}
	f.Publish(1) // no subscribers: fine
	f.Close()
	f.Close() // idempotent
	late := f.Subscribe(1)
	if _, ok := <-late.C(); ok {
		t.Error("subscription to closed fanout not closed")
	}
	late.Cancel() // no-op, must not panic
	f.Publish(2)  // closed: no-op
}

// Publishers, subscribers, and cancellers running concurrently must be
// race-free (exercised under -race in CI), with and without a stall wait.
func TestFanoutConcurrent(t *testing.T) {
	for _, stall := range []time.Duration{0, time.Millisecond} {
		f := NewFanout[int](stall)
		var readers sync.WaitGroup
		for s := 0; s < 4; s++ {
			sub := f.Subscribe(4)
			if s%2 == 0 {
				continue // never reads; must not stall publishers
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				for range sub.C() {
				}
			}()
		}
		var pubs sync.WaitGroup
		for p := 0; p < 4; p++ {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				for i := 0; i < 200; i++ {
					f.Publish(i)
				}
			}()
		}
		pubs.Wait()
		f.Close() // unblocks the readers
		readers.Wait()
	}
}

// TestFanoutStallWaitsForReader: with a stall, a full buffer waits for
// its reader instead of evicting, so a reader that keeps taking values
// loses none and sees them in publish order. The stall outlasts the test:
// the reader paces the publisher, not a timer.
func TestFanoutStallWaitsForReader(t *testing.T) {
	f := NewFanout[int](time.Minute)
	sub := f.Subscribe(1)
	const n = 1000
	go func() {
		for i := 0; i < n; i++ {
			f.Publish(i)
		}
		f.Close()
	}()
	next := 0
	for v := range sub.C() {
		if v != next {
			t.Fatalf("received %d, want %d", v, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("received %d values, want %d", next, n)
	}
	if d := sub.Dropped(); d != 0 {
		t.Errorf("Dropped = %d with a reader keeping up, want 0", d)
	}
}

// TestFanoutStallWaitsOncePerStall: an unread subscriber costs its
// publisher one stall wait, not one per value — after the first timed-out
// wait every publish evicts at once.
func TestFanoutStallWaitsOncePerStall(t *testing.T) {
	const stall, n = 10 * time.Millisecond, 1000
	f := NewFanout[int](stall)
	defer f.Close()
	sub := f.Subscribe(4)
	for i := 0; i < 4; i++ {
		f.Publish(i) // fills the buffer without waiting
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f.Publish(i)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("%d publishes to a stalled subscriber took %v; want about one %v wait", n, took, stall)
	}
	if d := sub.Dropped(); d != n {
		t.Errorf("Dropped = %d, want %d", d, n)
	}
}

// TestFanoutStallLatchClears: a publish that finds room clears the stall
// latch, so the next publish into a full buffer waits for the reader
// again instead of evicting.
func TestFanoutStallLatchClears(t *testing.T) {
	f := NewFanout[int](time.Millisecond)
	sub := f.Subscribe(1)
	f.Publish(0)
	f.Publish(1) // unread: waits out the stall, then evicts 0
	if !sub.stalled || sub.Dropped() != 1 {
		t.Fatalf("after a timed-out wait: stalled=%v dropped=%d, want true and 1", sub.stalled, sub.Dropped())
	}
	if v := <-sub.C(); v != 1 {
		t.Fatalf("received %d, want 1", v)
	}
	f.Publish(2) // finds room
	if sub.stalled {
		t.Fatal("a publish that found room left the stall latch set")
	}
	// From here the reader, not a timer, paces the publisher: a wait now
	// outlasts the test, so any further drop means a publish evicted
	// without waiting.
	f.stall = time.Minute
	const n = 100
	go func() {
		for i := 3; i < n; i++ {
			f.Publish(i)
		}
		f.Close()
	}()
	next := 2
	for v := range sub.C() {
		if v != next {
			t.Fatalf("received %d, want %d", v, next)
		}
		next++
	}
	if next != n {
		t.Fatalf("received up to %d, want %d", next, n)
	}
	if d := sub.Dropped(); d != 1 {
		t.Errorf("Dropped = %d, want only the 1 from the first stall", d)
	}
}

// TestFanoutTotalDroppedSurvivesCancel: the fan-out-level drop counter
// keeps accumulating across subscribers and outlives their cancellation —
// it backs the exporter's pupil_stream_dropped_total.
func TestFanoutTotalDroppedSurvivesCancel(t *testing.T) {
	f := NewFanout[int](0)
	sub := f.Subscribe(1)
	for i := 0; i < 4; i++ {
		f.Publish(i)
	}
	if sub.Dropped() == 0 {
		t.Fatal("buffer-1 subscriber saw no drops after 4 publishes")
	}
	perSub := sub.Dropped()
	if got := f.TotalDropped(); got != perSub {
		t.Errorf("TotalDropped = %d, want %d", got, perSub)
	}
	sub.Cancel()
	if got := f.TotalDropped(); got != perSub {
		t.Errorf("TotalDropped after Cancel = %d, want %d", got, perSub)
	}
	f.Close()
}

// TestFanoutLagWarnRateLimited: a burst of drops fires the installed
// warning once per rate-limit window, with the lifetime total.
func TestFanoutLagWarnRateLimited(t *testing.T) {
	f := NewFanout[int](0)
	var warns int
	var lastTotal uint64
	f.SetLagWarn(time.Hour, func(total uint64) {
		warns++
		lastTotal = total
	})
	sub := f.Subscribe(1)
	for i := 0; i < 100; i++ {
		f.Publish(i)
	}
	if sub.Dropped() < 2 {
		t.Fatalf("Dropped = %d, want a burst", sub.Dropped())
	}
	if warns != 1 {
		t.Errorf("warn fired %d times in one window, want 1", warns)
	}
	if lastTotal == 0 {
		t.Error("warn reported a zero drop total")
	}
	f.Close()
}
