package pipeline

import "sync"

// Ring is an in-memory sink retaining the most recent samples in a
// bounded circular buffer — the test observer, and the store behind
// pupild's /v1/telemetry/recent endpoint.
type Ring struct {
	mu    sync.Mutex
	buf   []Sample
	head  int // index of the oldest sample
	count int
	total uint64
}

// NewRing returns a ring retaining up to capacity samples (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Sample, capacity)}
}

// Write implements Sink.
func (r *Ring) Write(batch []Sample) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range batch {
		if r.count < len(r.buf) {
			r.buf[(r.head+r.count)%len(r.buf)] = s
			r.count++
		} else {
			r.buf[r.head] = s
			r.head = (r.head + 1) % len(r.buf)
		}
		r.total++
	}
	return nil
}

// Flush implements Sink.
func (r *Ring) Flush() error { return nil }

// Close implements Sink; the ring stays readable after close.
func (r *Ring) Close() error { return nil }

// Samples copies the newest max retained samples out (all of them when max
// <= 0), oldest first. Only what it returns is copied under the lock.
func (r *Ring) Samples(max int) []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if max > 0 && max < n {
		n = max
	}
	out := make([]Sample, n)
	for i, skip := 0, r.count-n; i < n; i++ {
		out[i] = r.buf[(r.head+skip+i)%len(r.buf)]
	}
	return out
}

// Len reports how many samples the ring currently retains.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Total reports how many samples the ring has ever received.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
