package server

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pupil/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestMetricsGoldenEmpty pins the full /metrics page of an empty server
// byte for byte: every family header renders (in the pre-pipeline order,
// with the new zone, stream-drop, and pipeline families in place), the
// server-level gauges read zero, and the content type is the exposition
// format. Regenerate with -update.
func TestMetricsGoldenEmpty(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	ts := httptest.NewServer(New(mgr).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != pipeline.ContentType {
		t.Errorf("Content-Type = %q, want %q", got, pipeline.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	path := filepath.Join("testdata", "metrics_empty.golden")
	if *update {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if body != string(want) {
		t.Errorf("/metrics drifted from golden:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsZoneFamilies runs a live node and checks the machine model's
// zone breakdown reaches the exporter: pupil_power_watts gains
// node+zone series for each package/core/dram zone, and the RAPL cap
// appears as pupil_zone_cap_watts.
func TestMetricsZoneFamilies(t *testing.T) {
	mgr, ts := testClient(t)

	n, err := mgr.Create(NodeConfig{Name: "z1", Technique: "RAPL", CapWatts: 140, FreeRun: true, Seed: 5,
		Workloads: []WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	id := n.ID()

	deadline := time.Now().Add(10 * time.Second)
	var body string
	wanted := []string{
		`pupil_power_watts{node="` + id + `",zone="package_0"} `,
		`pupil_power_watts{node="` + id + `",zone="package_0_core"} `,
		`pupil_power_watts{node="` + id + `",zone="package_0_dram"} `,
		`pupil_power_watts{node="` + id + `",zone="package_1"} `,
		`pupil_zone_cap_watts{node="` + id + `",zone="package_0"} `,
		"# TYPE pupil_zone_cap_watts gauge",
		"# TYPE pupil_stream_dropped_total counter",
		"# TYPE pupil_pipeline_published_total counter",
		`pupil_pipeline_written_total{sink="recent"} `,
	}
	for time.Now().Before(deadline) {
		body = scrape(t, ts.URL)
		ok := true
		for _, w := range wanted {
			if !strings.Contains(body, w) {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range wanted {
		if !strings.Contains(body, w) {
			t.Errorf("/metrics missing %q", w)
		}
	}
	t.Fatalf("zone families never appeared; last scrape:\n%s", body)
}

// TestRecentEndpoint checks the ring sink behind /v1/telemetry/recent
// accumulates the node's per-tick samples and honors ?max.
func TestRecentEndpoint(t *testing.T) {
	mgr, ts := testClient(t)
	if _, err := mgr.Create(NodeConfig{Name: "r1", Technique: "RAPL", CapWatts: 120, FreeRun: true, Seed: 2,
		Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(mgr.Recent(0)) > 10 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	all := mgr.Recent(0)
	if len(all) <= 10 {
		t.Fatalf("recent ring stuck at %d samples", len(all))
	}
	families := map[string]bool{}
	for _, s := range all {
		families[s.Family] = true
		if s.Node == "" {
			t.Fatalf("recent sample missing node label: %+v", s)
		}
	}
	for _, want := range []string{"pupil_power_watts", "pupil_cap_watts", "pupil_perf_hbs"} {
		if !families[want] {
			t.Errorf("recent samples missing family %q (have %v)", want, families)
		}
	}

	resp, got := doJSON(t, "GET", ts.URL+"/v1/telemetry/recent?max=3", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recent: status %d body %v", resp.StatusCode, got)
	}
	samples, ok := got["samples"].([]any)
	if !ok || len(samples) != 3 {
		t.Fatalf("recent?max=3 returned %v", got["samples"])
	}
	if resp, _ := doJSON(t, "GET", ts.URL+"/v1/telemetry/recent?max=bogus", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad max: status %d, want 400", resp.StatusCode)
	}
}

// TestStreamDroppedExported wedges a buffer-1 subscriber and checks the
// lost samples surface in the node status and the exporter.
func TestStreamDroppedExported(t *testing.T) {
	mgr, ts := testClient(t)
	n, err := mgr.Create(NodeConfig{Name: "d1", Technique: "RAPL", CapWatts: 120, FreeRun: true, Seed: 4,
		Workloads: []WorkloadConfig{{Benchmark: "x264", Threads: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Subscribe(1) // never read: every tick past the first overflows
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && n.StreamDropped() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if n.StreamDropped() == 0 {
		t.Fatal("wedged subscriber produced no drops")
	}
	if st := n.Status(); st.StreamDropped == 0 {
		t.Error("NodeStatus.StreamDropped = 0 after drops")
	}
	body := scrape(t, ts.URL)
	prefix := `pupil_stream_dropped_total{node="` + n.ID() + `"} `
	idx := strings.Index(body, prefix)
	if idx < 0 {
		t.Fatalf("/metrics missing %q:\n%s", prefix, body)
	}
	rest := body[idx+len(prefix):]
	if strings.HasPrefix(rest, "0\n") {
		t.Error("exporter reports zero stream drops after a wedged subscriber")
	}
}
