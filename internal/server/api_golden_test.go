package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// paced keeps a resource created over HTTP from ticking during the test:
// its first tick is an hour of wall time away, so every response shows the
// state it was built in plus the changes the script makes.
const paced = `"tick_real_ms": 3600000`

var (
	// simFloat matches a decimal or exponent float in a response body.
	simFloat = regexp.MustCompile(`-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?|-?[0-9]+e[-+][0-9]+`)
	// sinkWritten matches the pipeline's written counter, which the sink
	// worker advances in timer-driven batches.
	sinkWritten = regexp.MustCompile(`(?m)^(pupil_pipeline_written_total\{[^}]*\}) .*$`)
)

// TestAPIGolden drives one scripted pass over every /v1/nodes and
// /v1/clusters route plus /health and /metrics, and pins each response —
// method, path, status, Content-Type and body bytes — in
// testdata/api.golden. Regenerate with -update.
//
// Two normalizations keep the file host-independent: simulated floats are
// rounded to 6 significant digits (their low bits depend on whether the
// host fuses multiply-adds), and the written counter of the telemetry sink
// is masked.
func TestAPIGolden(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	ts := httptest.NewServer(New(mgr).Handler())
	defer ts.Close()

	// The 409 targets are a node and a cluster that finish within their
	// first tick. They are built directly and awaited on Done: over HTTP,
	// their create response would race that tick, and polling their state
	// would move the request counter /metrics reports.
	blackscholes := []WorkloadConfig{{Benchmark: "blackscholes"}}
	doneNode, err := mgr.Create(NodeConfig{Technique: "RAPL", CapWatts: 140, FreeRun: true, MaxSimS: 0.2, Seed: 1, Workloads: blackscholes})
	if err != nil {
		t.Fatal(err)
	}
	doneCluster, err := mgr.CreateCluster(ClusterConfig{BudgetWatts: 280, FreeRun: true, MaxSimS: 0.2, Seed: 1,
		Nodes: []ClusterNodeConfig{{Workloads: blackscholes}, {Workloads: blackscholes}}})
	if err != nil {
		t.Fatal(err)
	}
	<-doneNode.Done()
	<-doneCluster.Done()
	dn, dc := "/v1/nodes/"+doneNode.ID(), "/v1/clusters/"+doneCluster.ID()

	var out bytes.Buffer
	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "=== %s %s\n%d", method, path, resp.StatusCode)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			out.WriteString(" " + ct)
		}
		out.WriteString("\n")
		out.Write(raw)
		if len(raw) > 0 && raw[len(raw)-1] != '\n' {
			out.WriteString("\n\\ no newline at end of body\n")
		}
		out.WriteString("\n")
	}

	do("GET", "/health", "")

	// Nodes: create, list, get, cap, faults.
	do("POST", "/v1/nodes", `{"name": "web-1", "technique": "RAPL", "cap_watts": 140, "seed": 3, `+paced+`,
		"workloads": [{"benchmark": "blackscholes", "threads": 32}]}`)
	do("POST", "/v1/nodes", `{"name": "guarded", "technique": "PUPiL", "cap_watts": 120, "mix": "mix7", "watchdog": true, "seed": 4, `+paced+`}`)
	do("POST", "/v1/nodes", `{"name": "hot", "platform": "thermal", "technique": "Soft-DVFS", "cap_watts": 220, "seed": 9, `+paced+`,
		"thermal": {"ambient_c": 45}, "thermal_governor": true, "workloads": [{"benchmark": "swaptions", "threads": 32}]}`)
	do("GET", "/v1/nodes", "")
	do("GET", "/v1/nodes/n2", "")
	do("PUT", "/v1/nodes/n2/cap", `{"cap_watts": 110}`)
	do("POST", "/v1/nodes/n2/faults", `{"kind": "stuck", "target": "power-sensor", "onset_s": 1, "duration_s": 5}`)
	do("POST", "/v1/nodes/n2/faults", `{"kind": "misprogram", "target": "rapl-cap", "duration_s": 2, "magnitude": 1.5}`)
	do("GET", "/v1/nodes/n2/faults", "")
	do("GET", dn, "")
	do("GET", dn+"/faults", "")
	do("GET", dn+"/stream", "")

	// Clusters: a flat one and a racked, health-tracking one.
	do("POST", "/v1/clusters", `{"name": "pair", "budget_watts": 260, "seed": 7, `+paced+`,
		"nodes": [{"name": "heavy", "technique": "RAPL", "workloads": [{"benchmark": "blackscholes", "threads": 32}]},
		          {"technique": "Soft-Modeling", "workloads": [{"benchmark": "STREAM", "threads": 8}]}]}`)
	do("POST", "/v1/clusters", `{"name": "rig", "policy": "demand-shift", "budget_watts": 600, "seed": 3, `+paced+`,
		"health": {}, "topology": {"nodes_per_rack": 2, "racks_per_row": 1},
		"nodes": [{"technique": "RAPL", "workloads": [{"benchmark": "blackscholes", "threads": 32}]},
		          {"technique": "PUPiL-EAS", "workloads": [{"benchmark": "STREAM", "threads": 8}]},
		          {"technique": "Soft-Decision", "workloads": [{"benchmark": "swaptions", "threads": 32}]},
		          {"mix": "mix1"}]}`)
	do("GET", "/v1/clusters", "")
	do("GET", "/v1/clusters/c2", "")
	do("PUT", "/v1/clusters/c2/budget", `{"budget_watts": 240}`)
	do("PUT", "/v1/clusters/c3/nodes/1/cap", `{"cap_watts": 90}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "crash", "target": "node", "duration_s": 10, "node": 0}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "stuck", "target": "power-sensor", "duration_s": 5, "domain": "rack1"}`)
	do("GET", "/v1/clusters/c3/faults", "")
	do("GET", "/v1/clusters/c3", "")
	do("GET", dc, "")
	do("GET", dc+"/faults", "")
	do("GET", dc+"/stream", "")

	// 400: malformed or invalid input.
	do("POST", "/v1/nodes", `{`)
	do("POST", "/v1/nodes", `{"cap_watts": 140, "wat": 1}`)
	do("POST", "/v1/nodes", `{"cap_watts": 140}`)
	do("POST", "/v1/nodes", `{"cap_watts": 140, "technique": "magic", "workloads": [{"benchmark": "x264"}]}`)
	do("POST", "/v1/nodes", `{"cap_watts": 140, "platform": "toaster", "workloads": [{"benchmark": "x264"}]}`)
	do("POST", "/v1/nodes", `{"cap_watts": 0, "workloads": [{"benchmark": "x264"}]}`)
	do("PUT", "/v1/nodes/n2/cap", `nope`)
	do("PUT", "/v1/nodes/n2/cap", `{"cap_watts": 110} {}`)
	do("PUT", "/v1/nodes/n2/cap", `{"cap_watts": -5}`)
	do("POST", "/v1/nodes/n2/faults", `{"kind": "melt", "target": "power-sensor", "duration_s": 1}`)
	do("GET", "/v1/nodes/n2/stream?buffer=0", "")
	do("GET", "/v1/nodes/n2/stream?buffer=4097", "")
	do("GET", "/v1/nodes/n2/stream?max=-2", "")
	do("POST", "/v1/clusters", `{`)
	do("POST", "/v1/clusters", `{"budget_watts": 200, "nodes": []}`)
	do("POST", "/v1/clusters", `{"budget_watts": 200, "policy": "chaos", "nodes": [{"workloads": [{"benchmark": "x264"}]}]}`)
	do("POST", "/v1/clusters", `{"budget_watts": 200, "nodes": [{"technique": "magic", "workloads": [{"benchmark": "x264"}]}]}`)
	do("POST", "/v1/clusters", `{"budget_watts": 200, "nodes": [{"workloads": [{"benchmark": "nope"}]}]}`)
	do("PUT", "/v1/clusters/c2/budget", `nope`)
	do("PUT", "/v1/clusters/c2/budget", `{"budget_watts": 10}`)
	do("PUT", "/v1/clusters/c2/nodes/x/cap", `{"cap_watts": 90}`)
	do("PUT", "/v1/clusters/c2/nodes/x/cap", `nope`)
	do("PUT", "/v1/clusters/c2/nodes/0/cap", `nope`)
	do("PUT", "/v1/clusters/c2/nodes/0/cap", `{"cap_watts": 0}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0, "domain": "rack0"}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "crash", "target": "node", "duration_s": 1}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "melt", "target": "node", "duration_s": 1, "node": 0}`)
	do("GET", "/v1/clusters/c3/stream?buffer=4097", "")
	do("GET", "/v1/telemetry/recent?max=bogus", "")

	// 404: unknown resources, unknown node indices and domains.
	do("GET", "/v1/nodes/n999", "")
	do("PUT", "/v1/nodes/n999/cap", `nope`)
	do("DELETE", "/v1/nodes/n999", "")
	do("GET", "/v1/nodes/n999/stream", "")
	do("POST", "/v1/nodes/n999/faults", `{"kind": "stuck", "target": "power-sensor", "duration_s": 1}`)
	do("GET", "/v1/nodes/n999/faults", "")
	do("GET", "/v1/clusters/c999", "")
	do("PUT", "/v1/clusters/c999/budget", `{"budget_watts": 200}`)
	do("PUT", "/v1/clusters/c999/nodes/x/cap", `nope`)
	do("PUT", "/v1/clusters/c2/nodes/99/cap", `{"cap_watts": 90}`)
	do("DELETE", "/v1/clusters/c999", "")
	do("GET", "/v1/clusters/c999/stream", "")
	do("POST", "/v1/clusters/c999/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 99}`)
	do("POST", "/v1/clusters/c3/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "domain": "nowhere"}`)
	do("GET", "/v1/clusters/c999/faults", "")
	do("GET", "/v1/nowhere", "")

	// 409: mutations on the finished fixtures.
	do("PUT", dn+"/cap", `{"cap_watts": 100}`)
	do("POST", dn+"/faults", `{"kind": "stuck", "target": "power-sensor", "duration_s": 1}`)
	do("PUT", dc+"/budget", `{"budget_watts": 300}`)
	do("PUT", dc+"/nodes/0/cap", `{"cap_watts": 100}`)
	do("PUT", dc+"/nodes/7/cap", `{"cap_watts": 100}`)
	do("POST", dc+"/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0}`)

	do("GET", "/metrics", "")

	// Teardown: deletes, then the registries without them.
	do("DELETE", "/v1/nodes/n2", "")
	do("DELETE", "/v1/clusters/c2", "")
	do("GET", "/v1/nodes/n2", "")
	do("GET", "/v1/clusters", "")
	do("GET", "/health", "")

	got := sinkWritten.ReplaceAll(out.Bytes(), []byte("$1 <masked>"))
	got = simFloat.ReplaceAllFunc(got, func(b []byte) []byte {
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return b
		}
		return strconv.AppendFloat(nil, v, 'g', 6, 64)
	})

	path := filepath.Join("testdata", "api.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("API responses drifted from %s:\n%s", path, firstDiff(string(got), string(want)))
	}
}

// firstDiff reports the first line where got and want differ, with the
// record header above it for orientation.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	header := ""
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d, in %q:\n--- got ---\n%s\n--- want ---\n%s", i+1, header, gl, wl)
		}
		if strings.HasPrefix(gl, "=== ") {
			header = gl
		}
	}
	return "lengths differ"
}
