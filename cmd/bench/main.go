// Command bench runs the hot-path benchmark suite (internal/perf) outside
// the go-test harness, writes the results as a reviewable BENCH_tick.json
// artifact, and optionally gates them against a committed baseline with a
// benchstat-style relative threshold.
//
// Typical uses:
//
//	bench -baseline BENCH_tick.json              # compare against the repo baseline
//	bench -out BENCH_tick.json                   # regenerate the baseline
//	bench -short -baseline BENCH_tick.json -out artifact.json   # the CI gate
//
// The gate fails (exit 1) when any suite benchmark's time/op regresses past
// -threshold, its allocs/op grows past the (tighter) allocation slack — and
// a benchmark whose baseline is allocation-free must stay allocation-free,
// with no slack at all — or its bytes/op grows past 25% plus 1 KB.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"pupil/internal/perf"
)

func main() {
	out := flag.String("out", "", "write the fresh report to this path (JSON)")
	baseline := flag.String("baseline", "", "compare against this committed report; regressions exit 1")
	threshold := flag.Float64("threshold", 0.10, "relative time/op growth tolerated before failing")
	benchtime := flag.String("benchtime", "2s", "per-benchmark measuring time (testing.B benchtime)")
	count := flag.Int("count", 3, "samples per benchmark; the report keeps each benchmark's best")
	short := flag.Bool("short", false, "quick mode for CI: 500ms per benchmark")
	testing.Init()
	flag.Parse()

	bt := *benchtime
	if *short {
		bt = "500ms"
	}
	if err := flag.CommandLine.Set("test.benchtime", bt); err != nil {
		fmt.Fprintf(os.Stderr, "bench: setting benchtime: %v\n", err)
		os.Exit(2)
	}

	// Read the baseline before any writing, so -out may overwrite it.
	var base perf.Report
	haveBase := false
	if *baseline != "" {
		r, err := perf.ReadFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		base, haveBase = r, true
	}

	// Each benchmark is sampled -count times and the report keeps the best
	// (minimum) time and allocation figures: best-of-N is the estimator
	// least sensitive to scheduler noise on a shared host, which is what
	// lets the gate hold a tight threshold without flaking.
	var metrics []perf.Metric
	for _, bm := range perf.Suite() {
		var best perf.Metric
		for i := 0; i < *count; i++ {
			m := perf.FromResult(bm.Name, testing.Benchmark(bm.Fn))
			if i == 0 {
				best = m
				continue
			}
			if m.NsPerOp < best.NsPerOp {
				best.N, best.NsPerOp, best.OpsPerSec = m.N, m.NsPerOp, m.OpsPerSec
			}
			if m.AllocsPerOp < best.AllocsPerOp {
				best.AllocsPerOp = m.AllocsPerOp
			}
			if m.BytesPerOp < best.BytesPerOp {
				best.BytesPerOp = m.BytesPerOp
			}
		}
		fmt.Printf("%-28s %12.0f ns/op %8d allocs/op %10d B/op %12.0f ops/sec\n",
			best.Name, best.NsPerOp, best.AllocsPerOp, best.BytesPerOp, best.OpsPerSec)
		metrics = append(metrics, best)
	}
	report := perf.NewReport(metrics)

	if *out != "" {
		if err := perf.WriteFile(*out, report); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if haveBase {
		regs := perf.Compare(base, report, *threshold)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions against %s (time/op threshold %.0f%%, allocs/op slack %.0f%%, B/op slack %.0f%% + %d B)\n",
			*baseline, *threshold*100, perf.AllocSlack*100, perf.BytesSlack*100, perf.BytesSlackFloor)
	}
}
