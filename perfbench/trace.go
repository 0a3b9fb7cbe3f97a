package main

import (
	"math"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// kind names the layer boundary a span was recorded at.
type kind uint8

const (
	kCell      kind = iota // sweep: one grid cell on a worker
	kBuild                 // driver: NewSession + GrowTraces
	kAdvance               // driver: Session.AdvanceContext
	kResult                // driver: Session.Result
	kStart                 // core: Controller.Start
	kDecide                // core: Controller.Step
	kSetConfig             // core: Env.SetConfig
	kSetRAPL               // core: Env.SetRAPL
	kFeedback              // telemetry: Env.Feedback
	kOptimal               // control: OptimalSearch
	kStep                  // cluster: Coordinator.Step
	kSnapshot              // cluster: Coordinator.SnapshotInto
	kPolicy                // cluster: Policy.Rebalance
	kHandler               // server: the http.Handler
	kClient                // client: one operation, from its timing origin
	kSinkWrite             // pipeline: Sink.Write
	nKinds
)

var kindNames = [nKinds]string{
	"sweep.cell", "driver.build", "driver.advance", "driver.result",
	"core.start", "core.decide", "core.env.set_config", "core.env.set_rapl",
	"telemetry.feedback", "control.optimal",
	"cluster.step", "cluster.snapshot", "cluster.policy",
	"server.handler", "client.request", "pipeline.sink_write",
}

func (k kind) String() string { return kindNames[k] }

// span is one recorded interval. Times are nanoseconds since the
// recorder's base, on the monotonic clock.
type span struct {
	start, end int64
	// req joins a client span to the handler span it caused; 0 when the
	// span belongs to no request.
	req int64
	// parent indexes the span that caused this one; -1 for a root.
	parent int32
	// tag carries a technique index or a request class.
	tag  int16
	kind kind
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in a buffer allocated up front. begin claims a slot
// with one atomic add, so concurrent goroutines (the sweep and coordinator
// pools, HTTP handlers, the sink worker) never share a slot, and recording
// allocates nothing. A slot is written only by the goroutine that opened
// it, and the buffer is read only after every such goroutine has been
// joined. A nil recorder records nothing: untraced runs take the same code
// path.
//
// The buffer is mapped outside the Go heap: tens of megabytes of heap would
// change the collector's pacing, and with it the CPU time the traced pass
// is compared against. A span holds no pointers, so the collector need not
// see it.
type recorder struct {
	base  time.Time
	spans []span
	next  atomic.Int64
	lost  atomic.Int64
}

func newRecorder(capacity int) *recorder {
	r := &recorder{base: time.Now()}
	size := capacity * int(unsafe.Sizeof(span{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		r.spans = make([]span, capacity)
		return r
	}
	r.spans = unsafe.Slice((*span)(unsafe.Pointer(&mem[0])), capacity)
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its id, or -1 when tracing is off or the
// buffer is full (counted in lost).
func (r *recorder) begin(k kind, parent int32, tag int16, req int64) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.lost.Add(1)
		return -1
	}
	r.spans[i] = span{start: r.now(), req: req, parent: parent, tag: tag, kind: k}
	return int32(i)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(s span) {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.lost.Add(1)
		return
	}
	r.spans[i] = s
}

// end closes a span opened by begin on the same goroutine.
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].end = r.now()
	}
}

// recorded returns the spans written so far. Call it only after every
// recording goroutine has been joined.
func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children. Children may nest or overlap (pool
// workers under one coordinator step); overlapping coverage counts once,
// and a child sticking out of its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	var kids []int32
	for i, s := range spans {
		if s.parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		ka, kb := spans[kids[a]], spans[kids[b]]
		if ka.parent != kb.parent {
			return ka.parent < kb.parent
		}
		return ka.start < kb.start
	})
	for lo := 0; lo < len(kids); {
		p := spans[kids[lo]].parent
		hi := lo
		for hi < len(kids) && spans[kids[hi]].parent == p {
			hi++
		}
		ps := spans[p]
		var covered int64
		cur := ps.start // coverage so far ends here
		for _, k := range kids[lo:hi] {
			a, b := max(spans[k].start, cur), min(spans[k].end, ps.end)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		self[p] -= covered
		lo = hi
	}
	return self
}

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[quantileIndex(len(sorted), q)]
}

func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples ranked above the q-quantile of n samples. A
// percentile is reported only with at least minBeyond samples beyond it.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - quantileIndex(n, q)
}

const minBeyond = 10

// tailQuantile is the highest of the usual reporting percentiles that
// still has minBeyond samples beyond it; 0 when even the median has not.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }
