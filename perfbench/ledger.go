package main

import (
	"fmt"
	"io"
)

// maxTag bounds span tags: technique indexes and request classes.
const maxTag = 8

// kindStat aggregates the spans of one kind (or of one kind and tag).
type kindStat struct {
	n           int
	total, self int64 // nanoseconds
}

func (k kindStat) meanUs() float64 {
	if k.n == 0 {
		return 0
	}
	return float64(k.total) / float64(k.n) / 1e3
}

func (k kindStat) add(s span, self int64) kindStat {
	return kindStat{n: k.n + 1, total: k.total + s.dur(), self: k.self + self}
}

// spanTable is the ledger's view of a traced pass: every span's self time
// and the per-kind and per-tag sums.
type spanTable struct {
	spans  []span
	self   []int64
	byKind [nKinds]kindStat
	byTag  [nKinds][maxTag]kindStat
}

func tabulate(spans []span) *spanTable {
	t := &spanTable{spans: spans, self: selfTimes(spans)}
	for i, s := range spans {
		t.byKind[s.kind] = t.byKind[s.kind].add(s, t.self[i])
		if s.tag >= 0 && s.tag < maxTag {
			t.byTag[s.kind][s.tag] = t.byTag[s.kind][s.tag].add(s, t.self[i])
		}
	}
	return t
}

// print writes one line per span kind that occurred: count, total and self
// time, and the mean duration.
func (t *spanTable) print(w io.Writer) {
	fmt.Fprintf(w, "%-6s %-22s %10s %12s %12s %10s\n", "span", "layer boundary", "count", "total_ms", "self_ms", "mean_us")
	for k := kind(0); k < nKinds; k++ {
		st := t.byKind[k]
		if st.n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-6s %-22s %10d %12.3f %12.3f %10.3f\n", "span", k, st.n,
			float64(st.total)/1e6, float64(st.self)/1e6, st.meanUs())
	}
}

// durations returns the durations in milliseconds of the spans of kind k
// (and tag, when tag >= 0); with selfTime, their self times instead.
func (t *spanTable) durations(k kind, tag int16, selfTime bool) []float64 {
	var out []float64
	for i, s := range t.spans {
		if s.kind != k || (tag >= 0 && s.tag != tag) {
			continue
		}
		d := s.dur()
		if selfTime {
			d = t.self[i]
		}
		out = append(out, float64(d)/1e6)
	}
	return out
}

func (t *spanTable) medianMs(k kind, tag int16, selfTime bool) float64 {
	d := t.durations(k, tag, selfTime)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// outsideMs is, per request, the client's latency from its timing origin
// minus the handler's span for the same request id: the time spent in the
// client, the socket, the scheduler and queues.
func (t *spanTable) outsideMs() []float64 {
	handler := map[int64]int64{}
	for _, s := range t.spans {
		if s.kind == kHandler && s.req != 0 {
			handler[s.req] += s.dur() // a create+delete pair is two requests
		}
	}
	var out []float64
	for _, s := range t.spans {
		if h, ok := handler[s.req]; ok && s.kind == kClient {
			out = append(out, float64(s.dur()-h)/1e6)
		}
	}
	return out
}

// ledger derives every span-based per-layer metric. Each workload adds its
// own counters; a layer idle on a workload reads 0, so every traced run
// prints the whole ledger.
func ledger(t *spanTable) map[string]float64 {
	m := map[string]float64{}
	for name := range perLayer {
		m[name] = 0
	}
	var decisions int
	for i, tech := range techniques {
		d := t.byTag[kDecide][i].n
		decisions += d
		m["core.decisions."+tech] = float64(d)
	}
	m["core.decisions"] = float64(decisions)
	m["core.decide_us"] = t.byKind[kDecide].meanUs()
	m["core.env.set_config"] = float64(t.byKind[kSetConfig].n)
	m["core.env.set_rapl"] = float64(t.byKind[kSetRAPL].n)
	m["telemetry.feedback_us"] = t.byKind[kFeedback].meanUs()
	m["driver.build_ms"] = t.byKind[kBuild].meanUs() / 1e3
	m["driver.result_ms"] = t.byKind[kResult].meanUs() / 1e3
	m["driver.kernel_self_s"] = float64(t.byKind[kAdvance].self) / 1e9
	m["control.optimal_ms"] = t.byKind[kOptimal].meanUs() / 1e3
	m["cluster.step_ms"] = t.medianMs(kStep, -1, false)
	m["cluster.node_self_ms"] = t.medianMs(kStep, -1, true)
	m["cluster.snapshot_ms"] = t.medianMs(kSnapshot, -1, false)
	m["cluster.policy_calls"] = float64(t.byKind[kPolicy].n)
	m["cluster.policy_us"] = t.byKind[kPolicy].meanUs()
	for i, class := range classNames {
		m["server.handler_ms."+class] = t.medianMs(kHandler, int16(i), false)
	}
	if out := t.outsideMs(); len(out) > 0 {
		m["server.outside_ms"] = median(out)
	}
	m["pipeline.sink_write_us"] = t.byKind[kSinkWrite].meanUs()
	return m
}

// tracedPhase adds what every traced run reports beside its spans: the
// runtime and host figures of the untraced pass, the spans lost to a full
// buffer, and the tracing overhead — traced minus untraced CPU time.
func tracedPhase(m map[string]float64, untraced, traced phase, rec *recorder) {
	m["runtime.alloc_mb"] = untraced.allocMB
	m["runtime.gc_cycles"] = float64(untraced.gcCycles)
	m["runtime.gc_cpu_frac"] = untraced.gcCPUFrac
	m["host.steal_s"] = untraced.stealS
	m["trace.spans"] = float64(len(rec.recorded()))
	m["trace.lost"] = float64(rec.lost.Load())
	m["trace.overhead_cpu_s"] = traced.cpuS - untraced.cpuS
}
