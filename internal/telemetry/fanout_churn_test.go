package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A subscriber churn storm: many goroutines subscribing, reading a little,
// and cancelling while a publisher runs flat out. The fan-out must neither
// leak goroutines nor lose accounting — every value a subscriber failed to
// receive shows up in a drop counter, and the registry drains back to
// exactly the survivors.
func TestFanoutChurnStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	f := NewFanout[int](0)

	stop := make(chan struct{})
	var pub sync.WaitGroup
	pub.Add(1)
	go func() {
		defer pub.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				f.Publish(i)
			}
		}
	}()
	var wg sync.WaitGroup

	const workers, cycles = 16, 40
	var churned atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				sub := f.Subscribe(2)
				// Read a couple of values (the publisher may momentarily
				// pause, so don't insist), then walk away mid-stream.
				for j := 0; j < 2; j++ {
					select {
					case _, ok := <-sub.C():
						if !ok {
							t.Error("subscriber channel closed while fan-out is open")
							return
						}
					case <-time.After(10 * time.Second):
						t.Error("publisher starved a live subscriber")
						return
					}
				}
				sub.Cancel()
				churned.Add(1)
			}
		}()
	}

	wg.Wait() // workers done; stop the publisher too
	close(stop)
	pub.Wait()

	if got := churned.Load(); got != workers*cycles {
		t.Fatalf("churned %d subscriber cycles, want %d", got, workers*cycles)
	}
	if n := f.Subscribers(); n != 0 {
		t.Fatalf("registry retains %d subscribers after full churn", n)
	}

	// A late subscriber still gets the final value before Close: the last
	// publish lands in its buffer and survives the close.
	sub := f.Subscribe(8)
	f.Publish(424242)
	f.Close()
	var last int
	got := false
	for v := range sub.C() {
		last, got = v, true
	}
	if !got || last != 424242 {
		t.Fatalf("final value = %d (received %v), want 424242", last, got)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("final subscriber dropped %d values with a roomy buffer", d)
	}

	// Subscriptions are plain channels — the storm must leave no goroutines
	// behind beyond what the runtime had before.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the churn storm", before, after)
	}
}

// Drop accounting stays coherent under churn: the fan-out total equals at
// least every live subscriber's count, and keeps counting drops from
// subscribers that cancelled long ago.
func TestFanoutChurnDropAccounting(t *testing.T) {
	f := NewFanout[int](0)
	defer f.Close()

	// A one-slot subscriber that never reads: every publish past the first
	// drops something.
	stuck := f.Subscribe(1)
	for i := 0; i < 10; i++ {
		f.Publish(i)
	}
	if d := stuck.Dropped(); d != 9 {
		t.Fatalf("stuck subscriber dropped %d, want 9", d)
	}
	if tot := f.TotalDropped(); tot != 9 {
		t.Fatalf("TotalDropped = %d, want 9", tot)
	}
	stuck.Cancel()

	// New stuck subscriber: its drops accumulate on top of the cancelled
	// one's in the fan-out total.
	stuck2 := f.Subscribe(1)
	for i := 0; i < 5; i++ {
		f.Publish(i)
	}
	if d := stuck2.Dropped(); d != 4 {
		t.Fatalf("second stuck subscriber dropped %d, want 4", d)
	}
	if tot := f.TotalDropped(); tot != 13 {
		t.Fatalf("TotalDropped = %d, want 13 (9 from the cancelled subscriber + 4)", tot)
	}
}
