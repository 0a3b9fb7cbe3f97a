package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pupil/internal/core"
	"pupil/internal/machine"
)

func TestQuantileIndexAndTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		q     float64
		index int
		after int
	}{
		{1, 0.5, 0, 0},
		{10, 0.5, 4, 5},
		{100, 0.9, 89, 10},
		{99, 0.9, 89, 9},
		{200, 0.95, 189, 10},
		{200, 0.99, 197, 2},
		{620, 0.9, 557, 62},
	} {
		if got := quantileIndex(c.n, c.q); got != c.index {
			t.Errorf("quantileIndex(%d, %g) = %d, want %d", c.n, c.q, got, c.index)
		}
		if got := beyond(c.n, c.q); got != c.after {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.after)
		}
	}
	for _, c := range []struct {
		n int
		q float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}} {
		if got := tailQuantile(c.n); got != c.q {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.q)
		}
	}
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(sorted(v), 0.9); got != 5 {
		t.Errorf("p90 of five = %g, want the largest", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 50, parent: 0},    // 2: overlaps child 1 on [20,30]
		{start: 90, end: 120, parent: 0},   // 3: sticks out of the root
		{start: 15, end: 25, parent: 1},    // 4: grandchild under 1
		{start: 40, end: 45, parent: 2},    // 5: grandchild under 2
		{start: 200, end: 260, parent: -1}, // 6: childless root
		{start: 35, end: 38, parent: 2},    // 7: recorded after its sibling 5
	}
	// The root's children cover [10,50] and [90,100]: 50 of its 100.
	want := []int64{50, 10, 22, 30, 10, 5, 60, 3}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got, want[i])
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	sent, done := due.Add(30*time.Millisecond), due.Add(32*time.Millisecond)
	if ob := timed(classRead, 9, due, sent, done, true, nil); ob.latency != 32*time.Millisecond || ob.late != 30*time.Millisecond {
		t.Errorf("queued: latency %v late %v, want 32ms and 30ms: the wait for the connection counts against the request", ob.latency, ob.late)
	}
	if ob := timed(classRead, 9, due, sent, done, false, nil); ob.latency != 2*time.Millisecond || ob.late != 30*time.Millisecond {
		t.Errorf("idle: latency %v late %v, want 2ms and 30ms: a late timer wake-up is the generator's", ob.latency, ob.late)
	}

	// Operation 0 holds the connection past the due times of operations 1
	// and 2, which queue; operation 3 is due after operation 2 has ended
	// and finds the connection idle. The completion times are made up, so
	// the outcome does not depend on the scheduler.
	const interval = time.Millisecond
	start := time.Now()
	ends := []time.Duration{2500 * time.Microsecond, 2600 * time.Microsecond, 2700 * time.Microsecond, 3100 * time.Microsecond}
	var queued []bool
	obs := openLoop(start, interval, len(ends), func(i int, due time.Time, q bool) observation {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("operation %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		queued = append(queued, q)
		return timed(classRead, int64(i), due, due, start.Add(ends[i]), q, nil)
	})
	for i, want := range []bool{false, true, true, false} {
		if queued[i] != want {
			t.Errorf("operation %d queued %t, want %t", i, queued[i], want)
		}
		if !obs[i].done.Equal(start.Add(ends[i])) {
			t.Errorf("operation %d ends at %v, want %v", i, obs[i].done.Sub(start), ends[i])
		}
	}
}

func TestParseSteal(t *testing.T) {
	const stat = "cpu  4705 356 584 3699176 23 23 0 250 0 0\ncpu0 1393280 32966 572056 13343292 6130 0 17875 125 0 0\nintr 1\n"
	got, err := parseSteal(strings.NewReader(stat))
	if err != nil || got != 2.5 {
		t.Errorf("parseSteal = %g, %v; want 2.5 s (250 ticks at USER_HZ 100)", got, err)
	}
	for _, bad := range []string{
		"cpu0 1 2 3 4 5 6 7 8\n", // no aggregate line
		"cpu 1 2 3 4 5 6 7\n",    // too short to hold steal
		"cpu 1 2 3 4 5 6 7 x\n",  // not a number
	} {
		if _, err := parseSteal(strings.NewReader(bad)); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestParseStatmRSS(t *testing.T) {
	if got, err := parseStatmRSS([]byte("187234 4886 1203 598 0 62711 0\n")); err != nil || got != 4886 {
		t.Errorf("parseStatmRSS = %d, %v; want 4886 pages", got, err)
	}
	for _, bad := range []string{"", "187234", "187234 x 1203\n"} {
		if _, err := parseStatmRSS([]byte(bad)); err == nil {
			t.Errorf("parseStatmRSS(%q) succeeded", bad)
		}
	}
}

func TestArtifactComparison(t *testing.T) {
	fig3, err := readTable(strings.NewReader(
		"Benchmark,RAPL,Soft-DVFS,PUPiL\nx264,0.86,-,1.02\njacobi,0.75,-,0.98\nHarm.Mean,0.80,-,1.00\n"))
	if err != nil {
		t.Fatal(err)
	}
	norm := map[cellRef]float64{
		{"x264", "RAPL"}: 0.8649, {"x264", "Soft-DVFS"}: 0.5, {"x264", "PUPiL"}: 1.0151,
		{"jacobi", "RAPL"}: 0.7551, {"jacobi", "Soft-DVFS"}: 0.1, {"jacobi", "PUPiL"}: 0.98,
	}
	n, diffs := compareFig3(fig3, []string{"x264", "jacobi"}, func(c cellRef) float64 { return norm[c] })
	// "-" entries are skipped whatever the cell computed; 0.7551 rounds to
	// 0.76, not the artifact's 0.75.
	if n != 4 || len(diffs) != 1 || diffs[0].cell != (cellRef{"jacobi", "RAPL"}) {
		t.Errorf("compared %d, diffs %+v; want 4 compared and jacobi/RAPL differing", n, diffs)
	}

	fig4, err := readTable(strings.NewReader("Benchmark,RAPL,Soft-DVFS\nx264,580,unsettled\njacobi,530,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	type st struct {
		d  time.Duration
		ok bool
	}
	settle := map[cellRef]st{
		{"x264", "RAPL"}:        {580400 * time.Microsecond, true},
		{"x264", "Soft-DVFS"}:   {9 * time.Second, false},
		{"jacobi", "RAPL"}:      {530 * time.Millisecond, false}, // unsettled where a time is printed
		{"jacobi", "Soft-DVFS"}: {0, true},
	}
	n, diffs = compareFig4(fig4, []string{"x264", "jacobi", "missing"}, func(c cellRef) (time.Duration, bool) {
		return settle[c].d, settle[c].ok
	})
	if n != 4 || len(diffs) != 2 || diffs[0].cell != (cellRef{"jacobi", "RAPL"}) || diffs[1].cell.app != "missing" {
		t.Errorf("compared %d, diffs %+v; want 4 compared, jacobi/RAPL and the missing row differing", n, diffs)
	}
}

// fakeController touches the Env calls the tracer wraps.
type fakeController struct{ steps int }

func (*fakeController) Name() string          { return "fake" }
func (*fakeController) Period() time.Duration { return time.Second }
func (*fakeController) Start(core.Env)        {}
func (c *fakeController) Step(env core.Env) {
	c.steps++
	env.Feedback(time.Second)
	env.SetRAPL(nil)
	env.SetConfig(machine.Config{})
}

type fakeEnv struct{ core.Env }

func (fakeEnv) Feedback(time.Duration) core.Feedback   { return core.Feedback{} }
func (fakeEnv) SetRAPL([]float64)                      {}
func (fakeEnv) SetConfig(machine.Config) time.Duration { return 0 }

func TestRecorderAllocationFreeAndConcurrent(t *testing.T) {
	rec := newRecorder(1 << 12)
	parent := int32(-1)
	ctrl := traceController(&fakeController{}, rec, 1, &parent)
	var env core.Env = fakeEnv{}
	if a := testing.AllocsPerRun(100, func() { ctrl.Step(env) }); a != 0 {
		t.Errorf("a traced decision allocates %.1f times", a)
	}

	rec = newRecorder(1000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := rec.begin(kDecide, -1, int16(g), 0)
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	spans := rec.recorded()
	if len(spans) != 1000 || rec.lost.Load() != 200 {
		t.Fatalf("recorded %d, lost %d; want 1000 and 200", len(spans), rec.lost.Load())
	}
	for i, s := range spans {
		if s.kind != kDecide || s.end < s.start {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	var nilRec *recorder
	if id := nilRec.begin(kCell, -1, 0, 0); id != -1 {
		t.Errorf("a nil recorder opened span %d", id)
	}
	nilRec.end(-1)
	if len(nilRec.recorded()) != 0 {
		t.Error("a nil recorder recorded spans")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metrics the program
// prints and the ones BENCHMARK.json declares the same, units included.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		decl map[string]string
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, b.EndToEnd}, {"per_layer", perLayer, b.PerLayer}} {
		seen := map[string]bool{}
		for _, m := range c.json {
			seen[m.Name] = true
			if unit, ok := c.decl[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %s, the program %q", c.what, m.Name, m.Unit, unit)
			}
		}
		for name := range c.decl {
			if !seen[name] {
				t.Errorf("%s: the program reports %s, BENCHMARK.json does not declare it", c.what, name)
			}
		}
	}
}
