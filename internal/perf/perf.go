// Package perf is the repo's benchmark-regression harness: it runs the
// hot-path benchmark suite (kernel tick loop, session advance, sweep cell,
// server tick) programmatically, records the results as a JSON artifact
// (BENCH_tick.json), and compares a fresh run against a committed baseline
// with a benchstat-style relative threshold.
//
// The committed baseline is the repo's recorded benchmark trajectory: CI
// re-runs the suite on every push and fails when a hot path regresses by
// more than the threshold in time/op, or past its slack in allocs/op or
// bytes/op. Allocation counts are deterministic, so they gate at a much
// tighter tolerance than wall-clock — an alloc regression is a code change,
// never scheduler noise.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"
)

// Metric is one benchmark's recorded cost.
type Metric struct {
	// Name is the benchmark's canonical name, e.g. "BenchmarkRunnerTick".
	Name string `json:"name"`
	// N is how many iterations the harness settled on.
	N int `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is the inverse of NsPerOp, the headline throughput figure.
	OpsPerSec float64 `json:"ops_per_sec"`
	// AllocsPerOp and BytesPerOp are the allocation costs per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// Report is the on-disk artifact: environment metadata plus one Metric per
// suite benchmark.
type Report struct {
	// GoVersion, GOOS, GOARCH and GOMAXPROCS pin the environment the
	// numbers were taken in; cross-environment comparisons are advisory.
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Metrics is sorted by name so the artifact diffs cleanly.
	Metrics []Metric `json:"metrics"`
}

// FromResult converts a testing.BenchmarkResult into a Metric.
func FromResult(name string, r testing.BenchmarkResult) Metric {
	ns := float64(r.T.Nanoseconds())
	if r.N > 0 {
		ns /= float64(r.N)
	}
	ops := 0.0
	if ns > 0 {
		ops = 1e9 / ns
	}
	return Metric{
		Name:        name,
		N:           r.N,
		NsPerOp:     ns,
		OpsPerSec:   ops,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// NewReport assembles a Report from metrics, stamping the environment.
func NewReport(metrics []Metric) Report {
	sorted := append([]Metric(nil), metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	return Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics:    sorted,
	}
}

// Metric looks a benchmark up by name.
func (r Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// WriteFile renders the report as indented JSON (trailing newline, stable
// key order) so the artifact is reviewable in diffs.
func WriteFile(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a previously written report.
func ReadFile(path string) (Report, error) {
	var r Report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("perf: %s: %w", path, err)
	}
	return r, nil
}

// Regression is one gate violation found by Compare.
type Regression struct {
	Name string
	// Dimension is "time/op", "allocs/op" or "B/op".
	Dimension string
	Baseline  float64
	Current   float64
	// Ratio is Current/Baseline (> 1 means slower / more allocations).
	Ratio float64
}

// String renders the violation for CI logs.
func (r Regression) String() string {
	return fmt.Sprintf("%s %s regressed %.2fx (baseline %.4g, current %.4g)",
		r.Name, r.Dimension, r.Ratio, r.Baseline, r.Current)
}

// AllocSlack is the relative tolerance Compare applies to allocs/op.
// Allocation counts are deterministic per code version, but amortized
// growth (append doubling under different iteration counts) can wiggle
// them by a few percent between runs.
const AllocSlack = 0.10

// BytesSlack and BytesSlackFloor are the tolerance Compare applies to
// bytes/op: 25% of the baseline plus 1 KB. Bytes move more than counts
// between runs (a map or a pool grows by a bucket, an amortized doubling
// lands inside or outside the timer), and the absolute kilobyte keeps
// near-zero baselines from gating on a handful of bytes, while a hot path
// that goes back to growing a trace per op, kilobytes at a time, fails.
const (
	BytesSlack      = 0.25
	BytesSlackFloor = 1024
)

// Compare gates current against baseline: any benchmark present in both
// reports whose time/op grew by more than threshold (0.10 = 10%), whose
// allocs/op grew by more than AllocSlack, or whose bytes/op grew past
// BytesSlack plus BytesSlackFloor is reported as a regression.
// Benchmarks only present on one side are ignored (adding a benchmark must
// not fail the gate retroactively).
func Compare(baseline, current Report, threshold float64) []Regression {
	var out []Regression
	for _, base := range baseline.Metrics {
		cur, ok := current.Metric(base.Name)
		if !ok {
			continue
		}
		if base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+threshold) {
			out = append(out, Regression{
				Name: base.Name, Dimension: "time/op",
				Baseline: base.NsPerOp, Current: cur.NsPerOp,
				Ratio: cur.NsPerOp / base.NsPerOp,
			})
		}
		if base.AllocsPerOp > 0 && float64(cur.AllocsPerOp) > float64(base.AllocsPerOp)*(1+AllocSlack) {
			out = append(out, Regression{
				Name: base.Name, Dimension: "allocs/op",
				Baseline: float64(base.AllocsPerOp), Current: float64(cur.AllocsPerOp),
				Ratio: float64(cur.AllocsPerOp) / float64(base.AllocsPerOp),
			})
		} else if base.AllocsPerOp == 0 && cur.AllocsPerOp > 0 {
			out = append(out, Regression{
				Name: base.Name, Dimension: "allocs/op",
				Baseline: 0, Current: float64(cur.AllocsPerOp),
				Ratio: float64(cur.AllocsPerOp),
			})
		}
		if float64(cur.BytesPerOp) > float64(base.BytesPerOp)*(1+BytesSlack)+BytesSlackFloor {
			out = append(out, Regression{
				Name: base.Name, Dimension: "B/op",
				Baseline: float64(base.BytesPerOp), Current: float64(cur.BytesPerOp),
				Ratio: float64(cur.BytesPerOp) / math.Max(1, float64(base.BytesPerOp)),
			})
		}
	}
	return out
}
