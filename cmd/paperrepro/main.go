// Command paperrepro regenerates every table and figure of the PUPiL paper
// (ASPLOS 2016) on the simulated platform and prints them, optionally
// writing CSV artifacts per experiment.
//
// Usage:
//
//	paperrepro [-quick] [-seed N] [-parallel N] [-csv DIR] [-only LIST]
//
// -only selects a comma-separated subset of the experiments that
// `paperrepro -h` lists. Unknown names are an error (a typo would otherwise
// silently reproduce nothing).
//
// -parallel bounds the sweep worker pool (default: all cores). Results are
// bit-identical at any parallelism; only wall-clock changes. Progress for
// each experiment's grid is reported on stderr, and Ctrl-C cancels
// mid-simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"pupil/internal/experiment"
	"pupil/internal/sweep"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced grid (3 caps, 8 benchmarks, shorter runs)")
	seed := flag.Uint64("seed", 42, "random seed for the whole reproduction")
	parallel := flag.Int("parallel", 0, "sweep worker pool size (<= 0 means all cores)")
	csvDir := flag.String("csv", "", "directory to write CSV artifacts into (created if missing)")
	only := flag.String("only", "", "comma-separated subset of experiments to run: "+strings.Join(names(), ","))
	flag.Parse()

	cfg := experiment.Config{Seed: *seed, Quick: *quick}
	sel, err := parseOnly(*only)
	if err != nil {
		fatal(err)
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the reproduction mid-simulation: the context reaches
	// every in-flight cell through driver.RunContext.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	for _, e := range experiment.Experiments() {
		if len(sel) > 0 && !sel[e.Name] {
			continue
		}
		outs, err := e.Run(ctx, cfg, experiment.RunOpts{Parallel: *parallel, Progress: progressPrinter(e.Name)})
		if err != nil {
			fatal(err)
		}
		for _, o := range outs {
			if o.Table != nil {
				fmt.Println(o.Table.String())
			}
			if *csvDir != "" {
				if err := os.WriteFile(filepath.Join(*csvDir, o.File+".csv"), []byte(o.CSV), 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "reproduction completed in %v (parallel=%d)\n",
		time.Since(start).Round(time.Millisecond), sweep.Workers(*parallel))
}

// names lists every -only selector, in print order.
func names() []string {
	var out []string
	for _, e := range experiment.Experiments() {
		out = append(out, e.Name)
	}
	return out
}

// parseOnly validates the -only list against the known experiment names,
// returning an error naming the valid selectors on a typo.
func parseOnly(only string) (map[string]bool, error) {
	known := names()
	sel := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			slices.Sort(known)
			return nil, fmt.Errorf("unknown -only experiment %q (valid: %s)",
				name, strings.Join(known, ","))
		}
		sel[name] = true
	}
	return sel, nil
}

// progressPrinter returns a live stderr progress line for one experiment:
// "table3 312/500 cells, 41s elapsed". The sweep engine serializes calls,
// so the closure needs no locking.
func progressPrinter(name string) sweep.Progress {
	start := time.Now()
	var last time.Time
	return func(done, total int, label string) {
		if done != total && time.Since(last) < 200*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintf(os.Stderr, "\r%s %d/%d cells, %s elapsed",
			name, done, total, time.Since(start).Round(time.Second))
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperrepro:", err)
	os.Exit(1)
}
