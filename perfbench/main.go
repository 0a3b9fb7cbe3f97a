// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload per process through the layers' public functions and
// prints, as the last line of standard output, one JSON object with the
// run's correctness, the operations it attempted and failed, and its
// metrics: the end-to-end metrics of an untraced run, or with -trace 1 the
// per-layer ledger of a traced run. See README.md in this directory.
//
//	perfbench -workload repro|fleet|serve [-seed N] [-seconds S] [-trace 0|1]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// The benchmark is sized for a small shared host: every workload uses two
// schedulers, two workers and at most two client connections, and prints
// these beside its results.
const (
	procs   = 2
	workers = 2
)

// defaultSeed is the seed the committed reproduction under artifacts/ was
// generated with (paperrepro's default); repro checks its cells against
// those files only at this seed.
const defaultSeed = 42

type options struct {
	seed    uint64
	seconds int
	trace   bool
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	// wrong lists failed output checks; correct means none failed.
	wrong []string
	// digest hashes the run's simulated statistics: traced and untraced
	// passes of one seed must agree on it.
	digest string
	// e2e holds the end-to-end metrics, ledger the per-layer ones.
	e2e, ledger map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// bench is one workload: one way of using the system the benchmark
// measures.
type bench struct {
	rep repFunc
	// reps is how many repetitions an untraced run measures. The host's
	// speed varies between the seconds-long repetitions of repro and
	// fleet, so they take more than serve, whose open loop is paced.
	reps int
	// spans sizes the traced repetition's span buffer.
	spans int
}

var workloads = map[string]bench{
	"repro": {reproRep, 5, reproSpans},
	"fleet": {fleetRep, 5, fleetSpans},
	"serve": {serveRep, 3, serveSpans},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: repro, fleet or serve")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of serve's open-loop phase, in seconds")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and prints the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want repro, fleet or serve)", *name)
	}
	if *seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d workers=%d client_goroutines=2 connections=2 workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, *name, *seed, *seconds, *trace)

	out, err := measure(options{seed: *seed, seconds: *seconds, trace: *trace == 1}, w, stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "digest %s\n", out.digest)
	for _, w := range out.wrong {
		fmt.Fprintf(stdout, "wrong %s\n", w)
	}
	return printResult(stdout, out, *trace == 1)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult writes the metric table and then the JSON result line. Every
// metric the benchmark declares must have been measured.
func printResult(w io.Writer, out *outcome, traced bool) error {
	decl, vals := endToEnd, out.e2e
	if traced {
		decl, vals = perLayer, out.ledger
	}
	res := result{
		Correct:   len(out.wrong) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(decl)),
	}
	names := make([]string, 0, len(decl))
	for name := range decl {
		names = append(names, name)
	}
	sort.Strings(names)
	var missing []string
	for _, name := range names {
		v, ok := vals[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricValue{Value: v, Unit: decl[name]}
		fmt.Fprintf(w, "metric %-42s %16.6f %s\n", name, v, decl[name])
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
