package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the tick rate of /proc/stat's counters (USER_HZ, 100 on every
// Linux architecture Go supports).
const userHZ = 100

// parseSteal reads the aggregate "cpu" line of /proc/stat and returns its
// steal counter in seconds: time the hypervisor ran someone else while this
// host's CPUs had work.
func parseSteal(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		// cpu user nice system idle iowait irq softirq steal ...
		if len(f) < 9 {
			return 0, fmt.Errorf("/proc/stat: cpu line has %d fields, want at least 9", len(f))
		}
		ticks, err := strconv.ParseUint(f[8], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/stat: steal: %w", err)
		}
		return float64(ticks) / userHZ, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

// stealSeconds reads the host's cumulative steal time; hosts without
// /proc/stat report 0.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	s, err := parseSteal(f)
	if err != nil {
		return 0
	}
	return s
}

// sample is the process and host state at one instant; the difference of
// two samples describes the phase between them.
type sample struct {
	wall    time.Time
	cpu     time.Duration // process user + system
	steal   float64       // host steal seconds
	alloc   uint64        // cumulative heap bytes allocated
	gcs     uint32
	gcCPU   float64 // cumulative GC CPU seconds
	procCPU float64 // cumulative CPU seconds the runtime accounts
}

var gcMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func takeSample() sample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		m[i].Name = name
	}
	metrics.Read(m)
	return sample{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		steal:   stealSeconds(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcCPU:   m[0].Value.Float64(),
		procCPU: m[1].Value.Float64(),
	}
}

// phase is what happened between two samples.
type phase struct {
	wallS, cpuS, stealS float64
	allocMB             float64
	gcCycles            int
	gcCPUFrac           float64
}

func between(a, b sample) phase {
	p := phase{
		wallS:    b.wall.Sub(a.wall).Seconds(),
		cpuS:     (b.cpu - a.cpu).Seconds(),
		stealS:   b.steal - a.steal,
		allocMB:  float64(b.alloc-a.alloc) / (1 << 20),
		gcCycles: int(b.gcs - a.gcs),
	}
	if d := b.procCPU - a.procCPU; d > 0 {
		p.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return p
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssPollEvery is how often watchRSS samples the resident set. The
// runtime hands freed memory back to the kernel over hundreds of
// milliseconds, so a peak lasts far longer than this.
const rssPollEvery = 5 * time.Millisecond

// parseStatmRSS returns the resident pages of a /proc/<pid>/statm line,
// its second field. It does not allocate, so sampling leaves the heap it
// measures alone.
func parseStatmRSS(b []byte) (int64, error) {
	i := bytes.IndexByte(b, ' ')
	if i < 0 {
		return 0, fmt.Errorf("statm: one field in %q", b)
	}
	var pages int64
	n := 0
	for _, c := range b[i+1:] {
		if c < '0' || c > '9' {
			break
		}
		pages = pages*10 + int64(c-'0')
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("statm: no resident pages in %q", b)
	}
	return pages, nil
}

// watchRSS samples the process's resident set every rssPollEvery until
// the returned function is called, which returns the largest sample in
// MB. Where /proc/self/statm cannot be read, it returns the process's
// high-water mark instead.
func watchRSS() (stop func() float64) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return peakRSSMB
	}
	done, peak := make(chan struct{}), make(chan int64)
	go func() {
		defer f.Close()
		tick := time.NewTicker(rssPollEvery)
		defer tick.Stop()
		var buf [128]byte
		var most int64
		for {
			n, _ := f.ReadAt(buf[:], 0) // io.EOF: the line is shorter than buf
			if p, err := parseStatmRSS(buf[:n]); err == nil {
				most = max(most, p)
			}
			select {
			case <-done:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		if p := <-peak; p > 0 {
			return float64(p*int64(os.Getpagesize())) / (1 << 20)
		}
		return peakRSSMB()
	}
}

// heapInUseMB reads live heap after a forced collection, so growth
// measures what the program retains rather than garbage not yet collected.
func heapInUseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
