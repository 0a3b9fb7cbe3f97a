package perf

// The load side of the regression harness: BENCH_load.json is the capacity
// artifact cmd/pupilload emits — per-endpoint-class latency percentiles,
// stream-sample drop accounting, and goroutine/heap growth across a fleet
// churn storm — and CompareLoad is its gate, run in CI alongside the
// Compare gate over BENCH_tick.json.
//
// Latency gates are relative to the committed baseline (load latencies are
// far noisier than benchmark ns/op, so the default tolerance is much
// wider), while correctness-shaped budgets — request errors, stream drop
// rate, leaked goroutines — are absolute: a leak or an error burst is a
// bug at any speed, on any host.

import (
	"encoding/json"
	"fmt"
	"os"
)

// RaceEnabled reports whether the race detector instruments this build.
// Load reports record it so the gate never compares latencies measured
// under instrumentation against latencies measured without.
func RaceEnabled() bool { return raceEnabled }

// LoadMetric is one endpoint class's latency record.
type LoadMetric struct {
	// Class names the endpoint class ("status_node", "cap_node",
	// "create_cluster", "metrics", ...).
	Class string `json:"class"`
	// Count and Errors tally requests issued and non-2xx/transport
	// failures among them.
	Count  int64 `json:"count"`
	Errors int64 `json:"errors"`
	// P50Ms/P95Ms/P99Ms/MaxMs are latency percentiles over the run, in
	// wall-clock milliseconds, including reading the full response body.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// LoadReport is the on-disk capacity artifact (BENCH_load.json).
type LoadReport struct {
	// GoVersion, GOOS, GOARCH, GOMAXPROCS and Race pin the environment;
	// cross-environment latency comparisons are advisory.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Race records whether the race detector instrumented the run; its
	// overhead shifts every latency, so the gate refuses to compare
	// latencies across differing Race flags.
	Race bool `json:"race"`
	// InProcess reports whether the daemon ran inside the harness process
	// (goroutine/heap introspection is only meaningful then).
	InProcess bool `json:"in_process"`

	// DurationS is the storm phase length; Seed makes worker schedules
	// reproducible.
	DurationS float64 `json:"duration_s"`
	Seed      uint64  `json:"seed"`

	// Fleet shape: persistent nodes (paced + free-running), clusters, and
	// the worker counts per class.
	Nodes        int `json:"nodes"`
	FreeRunNodes int `json:"free_run_nodes"`
	Clusters     int `json:"clusters"`
	Streams      int `json:"streams"`
	Probers      int `json:"probers"`
	Stormers     int `json:"stormers"`
	Faulters     int `json:"faulters"`
	Churners     int `json:"churners"`

	// Endpoints is sorted by class so the artifact diffs cleanly.
	Endpoints []LoadMetric `json:"endpoints"`

	// StreamSamples counts NDJSON samples received across all long-lived
	// subscribers; StreamDropped counts samples those subscribers lost to
	// full ring buffers (the pupil_stream_dropped_total source), and
	// StreamDropRate is dropped/(received+dropped).
	StreamSamples  int64   `json:"stream_samples"`
	StreamDropped  uint64  `json:"stream_dropped"`
	StreamDropRate float64 `json:"stream_drop_rate"`

	// ChurnCycles counts completed create→stream→delete cycles;
	// MetricsScrapes counts /metrics fetches.
	ChurnCycles    int64 `json:"churn_cycles"`
	MetricsScrapes int64 `json:"metrics_scrapes"`

	// Goroutine and heap growth across the whole run: measured after the
	// daemon starts but before the fleet ramps, then again after every
	// node, cluster, stream, and churn worker has drained. A nonzero
	// delta that persists is a leaked session/manager/fanout goroutine.
	GoroutineBase  int    `json:"goroutine_base"`
	GoroutineFinal int    `json:"goroutine_final"`
	GoroutineDelta int    `json:"goroutine_delta"`
	HeapBaseBytes  uint64 `json:"heap_base_bytes"`
	HeapFinalBytes uint64 `json:"heap_final_bytes"`
}

// Endpoint looks an endpoint class up by name.
func (r LoadReport) Endpoint(class string) (LoadMetric, bool) {
	for _, m := range r.Endpoints {
		if m.Class == class {
			return m, true
		}
	}
	return LoadMetric{}, false
}

// WriteLoadFile renders the report as indented JSON (trailing newline,
// stable key order) so the artifact is reviewable in diffs.
func WriteLoadFile(path string, r LoadReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadLoadFile loads a previously written capacity report.
func ReadLoadFile(path string) (LoadReport, error) {
	var r LoadReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("perf: %s: %w", path, err)
	}
	return r, nil
}

// LoadBudget is the gate configuration for CompareLoad. Zero values take
// the defaults below.
type LoadBudget struct {
	// LatencyThreshold is the relative p99 (and p50) growth tolerated per
	// endpoint class against the baseline before failing; 1.0 means 2x.
	LatencyThreshold float64
	// MaxDropRate is the absolute stream drop-rate budget.
	MaxDropRate float64
	// MaxGoroutineDelta is the absolute leaked-goroutine budget after the
	// fleet drains.
	MaxGoroutineDelta int
}

// Gate defaults: load latency on a shared CI host is noisy, so the
// relative gate only catches step-function regressions (a doubling), while
// the drop and goroutine budgets are tight because they are determined by
// code, not host speed.
const (
	DefaultLatencyThreshold  = 1.0
	DefaultMaxDropRate       = 0.02
	DefaultMaxGoroutineDelta = 8
)

func (b LoadBudget) withDefaults() LoadBudget {
	if b.LatencyThreshold <= 0 {
		b.LatencyThreshold = DefaultLatencyThreshold
	}
	if b.MaxDropRate <= 0 {
		b.MaxDropRate = DefaultMaxDropRate
	}
	if b.MaxGoroutineDelta <= 0 {
		b.MaxGoroutineDelta = DefaultMaxGoroutineDelta
	}
	return b
}

// CompareLoad gates current against baseline: any endpoint class present
// in both whose p50 or p99 latency grew past the threshold, any endpoint
// errors at all, a stream drop rate past the budget, or a goroutine delta
// past the budget is reported as a regression. Endpoint classes present on
// one side only are ignored (adding a worker class must not fail the gate
// retroactively); latency comparisons are skipped entirely when the two
// reports disagree on race instrumentation.
func CompareLoad(baseline, current LoadReport, budget LoadBudget) []Regression {
	b := budget.withDefaults()
	var out []Regression

	if baseline.Race == current.Race {
		for _, base := range baseline.Endpoints {
			cur, ok := current.Endpoint(base.Class)
			if !ok {
				continue
			}
			for _, dim := range []struct {
				name      string
				base, cur float64
			}{
				{"p50 latency", base.P50Ms, cur.P50Ms},
				{"p99 latency", base.P99Ms, cur.P99Ms},
			} {
				if dim.base > 0 && dim.cur > dim.base*(1+b.LatencyThreshold) {
					out = append(out, Regression{
						Name: "load:" + base.Class, Dimension: dim.name,
						Baseline: dim.base, Current: dim.cur,
						Ratio: dim.cur / dim.base,
					})
				}
			}
		}
	}

	// Absolute budgets: errors, drops, and leaks gate regardless of the
	// baseline's values or the host's speed.
	for _, m := range current.Endpoints {
		if m.Errors > 0 {
			out = append(out, Regression{
				Name: "load:" + m.Class, Dimension: "request errors",
				Baseline: 0, Current: float64(m.Errors),
				Ratio: float64(m.Errors),
			})
		}
	}
	if current.StreamDropRate > b.MaxDropRate {
		out = append(out, Regression{
			Name: "load:stream", Dimension: "drop rate",
			Baseline: b.MaxDropRate, Current: current.StreamDropRate,
			Ratio: current.StreamDropRate / b.MaxDropRate,
		})
	}
	if current.InProcess && current.GoroutineDelta > b.MaxGoroutineDelta {
		out = append(out, Regression{
			Name: "load:goroutines", Dimension: "leak delta",
			Baseline: float64(b.MaxGoroutineDelta), Current: float64(current.GoroutineDelta),
			Ratio: float64(current.GoroutineDelta) / float64(b.MaxGoroutineDelta),
		})
	}
	return out
}
