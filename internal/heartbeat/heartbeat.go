// Package heartbeat implements the Application Heartbeats interface the
// paper's authors advocate for performance feedback (Section 3.1.1, citing
// Hoffmann et al.): an application registers a heartbeat per unit of real
// progress (a frame encoded, a query answered, an iteration finished) and
// observers read windowed heartbeat rates. High-level, application-defined
// progress is what lets a power capper optimize something users care about
// rather than a proxy like instructions per second.
package heartbeat

import (
	"fmt"
	"time"
)

// beat is one recorded progress increment.
type beat struct {
	t time.Duration
	n float64
}

// Monitor accumulates an application's heartbeats and serves windowed
// rates. It retains a bounded history; rates over spans older than the
// retention window are not answerable.
type Monitor struct {
	name  string
	buf   []beat // ring storage, allocated at the first Beat
	size  int    // the ring's capacity
	head  int    // index of the oldest retained beat
	count int
	total float64
}

// NewMonitor creates a monitor retaining the most recent capacity beats.
func NewMonitor(name string, capacity int) *Monitor {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Monitor{name: name, size: capacity}
}

// Name identifies the application.
func (m *Monitor) Name() string { return m.name }

// Beat registers n units of progress completed at time now. Beats must be
// registered in non-decreasing time order; n may be fractional (partial
// progress within a reporting interval) but not negative.
func (m *Monitor) Beat(now time.Duration, n float64) error {
	if n < 0 {
		return fmt.Errorf("heartbeat: %s: negative progress %g", m.name, n)
	}
	if m.count > 0 && now < m.last().t {
		return fmt.Errorf("heartbeat: %s: beat at %v precedes last at %v", m.name, now, m.last().t)
	}
	if m.buf == nil {
		m.buf = make([]beat, m.size)
	}
	idx := m.slot(m.count)
	if m.count == len(m.buf) {
		// Evict the oldest.
		m.head = m.slot(1)
		m.count--
	}
	m.buf[idx] = beat{t: now, n: n}
	m.count++
	m.total += n
	return nil
}

func (m *Monitor) last() beat {
	return m.buf[m.slot(m.count-1)]
}

// slot is the ring index of the i-th retained beat, oldest first, for
// 0 <= i <= count: the ring wraps at most once, so a compare replaces the
// modulo on the per-tick path.
func (m *Monitor) slot(i int) int {
	idx := m.head + i
	if idx >= len(m.buf) {
		idx -= len(m.buf)
	}
	return idx
}

// Total returns the cumulative progress across all beats ever registered.
func (m *Monitor) Total() float64 { return m.total }

// Rate returns the heartbeat rate (units/s) over (from, to]: the sum of
// progress in the span divided by its length. Spans with no retained beats
// report 0.
func (m *Monitor) Rate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	// Beats are time-ordered; walk back from the newest and stop at the
	// window's lower edge, so short trailing windows cost O(window), not
	// O(retention).
	sum := 0.0
	for i := m.count - 1; i >= 0; i-- {
		b := m.buf[m.slot(i)]
		if b.t <= from {
			break
		}
		if b.t <= to {
			sum += b.n
		}
	}
	return sum / (to - from).Seconds()
}

// Window returns the span covered by retained beats.
func (m *Monitor) Window() (from, to time.Duration, ok bool) {
	if m.count == 0 {
		return 0, 0, false
	}
	return m.buf[m.head].t, m.last().t, true
}
