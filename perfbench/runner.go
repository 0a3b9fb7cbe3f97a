package main

import (
	"fmt"
	"io"
)

// rep is one set-up and measured phase of a workload.
type rep struct {
	// setups are the set-up times, in seconds, the repetition took.
	setups []float64
	// e2e holds the repetition's end-to-end metrics, except setup_s and
	// rss_peak_mb, which measure collects, and the tails the ledger
	// reports.
	e2e    map[string]float64
	phase  phase
	digest string
	// table and ledger are filled by a traced repetition.
	table  *spanTable
	ledger map[string]float64
}

// repFunc sets a workload up and measures it once, counting operations
// and failures into res. rec is nil for an untraced repetition.
type repFunc func(o options, rec *recorder, res *outcome, log io.Writer) (*rep, error)

// measure runs a workload's repetitions. An untraced run makes reps
// untraced repetitions, each set up from scratch, and reports the median of
// each end-to-end metric, so a burst of host noise in one repetition does
// not move the result. rss_peak_mb is the median of the repetitions' peak
// resident sets: the process's own high-water mark would be the one
// repetition whose collections happened to fall late. A traced run makes one untraced and one traced
// repetition, and reports the traced one's ledger together with the
// runtime figures of the untraced one and the difference of their CPU
// times. Every repetition of one seed must produce the same simulated
// statistics.
func measure(o options, w bench, log io.Writer) (*outcome, error) {
	res := &outcome{}
	fn, reps := w.rep, w.reps
	if o.trace {
		reps = 1
	}
	vals := map[string][]float64{}
	var setups, rss []float64
	var first *rep
	for i := 0; i < reps; i++ {
		stop := watchRSS()
		r, err := fn(o, nil, res, log)
		peak := stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		printPhase(log, fmt.Sprintf("rep%d", i), r.phase, peak)
		if first == nil {
			first = r
		} else if r.digest != first.digest {
			res.fail("repetition %d digest %s differs from %s", i, r.digest, first.digest)
		}
		setups = append(setups, r.setups...)
		for k, v := range r.e2e {
			vals[k] = append(vals[k], v)
		}
	}
	res.digest = first.digest
	res.e2e = map[string]float64{"setup_s": median(setups), "rss_peak_mb": median(rss)}
	for k, v := range vals {
		res.e2e[k] = median(v)
	}
	if !o.trace {
		return res, nil
	}

	rec := newRecorder(w.spans)
	stop := watchRSS()
	t, err := fn(o, rec, res, log)
	peak := stop()
	if err != nil {
		return nil, err
	}
	printPhase(log, "traced", t.phase, peak)
	if t.digest != first.digest {
		res.fail("traced digest %s differs from untraced %s", t.digest, first.digest)
	}
	t.table.print(log)
	tracedPhase(t.ledger, first.phase, t.phase, rec)
	for k, v := range first.e2e {
		if _, ok := perLayer[k]; ok {
			t.ledger[k] = v
		}
	}
	fmt.Fprintf(log, "trace overhead_cpu_s=%.3f (traced %.3f, untraced %.3f)\n",
		t.ledger["trace.overhead_cpu_s"], t.phase.cpuS, first.phase.cpuS)
	res.ledger = t.ledger
	return res, nil
}

func printPhase(w io.Writer, name string, p phase, rssMB float64) {
	fmt.Fprintf(w, "phase %s wall_s=%.3f cpu_s=%.3f host.steal_s=%.2f alloc_mb=%.1f gc_cycles=%d gc_cpu_frac=%.4f rss_peak_mb=%.1f\n",
		name, p.wallS, p.cpuS, p.stealS, p.allocMB, p.gcCycles, p.gcCPUFrac, rssMB)
}
