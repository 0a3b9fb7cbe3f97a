package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// The documented HTTP error taxonomy, enforced symmetrically across the
// node and cluster APIs: invalid input is 400 before it reaches the
// models, an unknown resource is 404, and mutating a resource that is no
// longer running — cap and budget changes, per-node overrides, fault
// injection — is 409, and so is streaming one, which has no samples left
// to send. This sweep pins every /v1/nodes and /v1/clusters
// endpoint against that matrix so the taxonomy cannot drift between the
// two APIs.

// createFixture posts a resource and returns its ID.
func createFixture(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	resp, out := doJSON(t, "POST", ts.URL+path, body)
	if resp.StatusCode != 201 {
		t.Fatalf("POST %s: status %d (%v)", path, resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("POST %s: no id in response %v", path, out)
	}
	return id
}

// waitForResourceState polls a node's or cluster's status until it reports
// the wanted state; free-running bounded fixtures reach "done" in
// milliseconds.
func waitForResourceState(t *testing.T, ts *httptest.Server, path, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, out := doJSON(t, "GET", ts.URL+path, "")
		if st, _ := out["state"].(string); st == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached state %q", path, want)
}

func TestErrorTaxonomyMatrix(t *testing.T) {
	_, ts := testClient(t)

	// Fixtures: one running and one finished node, one running and one
	// finished cluster. The finished ones are the 409 targets.
	nodeBody := func(maxSim string) string {
		return fmt.Sprintf(`{"technique": "RAPL", "cap_watts": 140, "free_run": true%s,
			"workloads": [{"benchmark": "blackscholes"}]}`, maxSim)
	}
	clusterBody := func(maxSim string) string {
		return fmt.Sprintf(`{"budget_watts": 280, "free_run": true%s,
			"nodes": [{"workloads": [{"benchmark": "blackscholes"}]},
			          {"workloads": [{"benchmark": "blackscholes"}]}]}`, maxSim)
	}
	liveNode := createFixture(t, ts, "/v1/nodes", nodeBody(""))
	doneNode := createFixture(t, ts, "/v1/nodes", nodeBody(`, "max_sim_s": 0.2`))
	liveCluster := createFixture(t, ts, "/v1/clusters", clusterBody(""))
	doneCluster := createFixture(t, ts, "/v1/clusters", clusterBody(`, "max_sim_s": 0.2`))
	waitForResourceState(t, ts, "/v1/nodes/"+doneNode, "done")
	waitForResourceState(t, ts, "/v1/clusters/"+doneCluster, "done")

	fault := `{"kind": "stuck", "target": "power-sensor", "duration_s": 1}`
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		// --- 400: invalid input, node API.
		{"node create bad json", "POST", "/v1/nodes", `{`, 400},
		{"node create unknown field", "POST", "/v1/nodes", `{"cap_watts": 140, "wat": 1}`, 400},
		{"node create zero cap", "POST", "/v1/nodes", `{"cap_watts": 0, "workloads": [{"benchmark": "x264"}]}`, 400},
		{"node create no workloads", "POST", "/v1/nodes", `{"cap_watts": 140}`, 400},
		{"node cap bad body", "PUT", "/v1/nodes/" + liveNode + "/cap", `nope`, 400},
		{"node cap zero", "PUT", "/v1/nodes/" + liveNode + "/cap", `{"cap_watts": 0}`, 400},
		{"node cap nan", "PUT", "/v1/nodes/" + liveNode + "/cap", `{"cap_watts": "x"}`, 400},
		{"node fault bad kind", "POST", "/v1/nodes/" + liveNode + "/faults", `{"kind": "melt", "target": "power-sensor", "duration_s": 1}`, 400},
		{"node fault bad target", "POST", "/v1/nodes/" + liveNode + "/faults", `{"kind": "stuck", "target": "hamster", "duration_s": 1}`, 400},
		{"node fault zero duration", "POST", "/v1/nodes/" + liveNode + "/faults", `{"kind": "stuck", "target": "power-sensor"}`, 400},
		{"node stream zero buffer", "GET", "/v1/nodes/" + liveNode + "/stream?buffer=0", "", 400},
		{"node stream bad max", "GET", "/v1/nodes/" + liveNode + "/stream?max=-2", "", 400},
		{"node stream oversize buffer", "GET", "/v1/nodes/" + liveNode + "/stream?buffer=4097", "", 400},

		// --- 400: invalid input, cluster API.
		{"cluster create bad json", "POST", "/v1/clusters", `{`, 400},
		{"cluster create unknown field", "POST", "/v1/clusters", `{"budget_watts": 200, "wat": 1}`, 400},
		{"cluster create no nodes", "POST", "/v1/clusters", `{"budget_watts": 200, "nodes": []}`, 400},
		{"cluster create zero budget", "POST", "/v1/clusters", `{"budget_watts": 0, "nodes": [{"workloads": [{"benchmark": "x264"}]}]}`, 400},
		{"cluster create bad policy", "POST", "/v1/clusters", `{"budget_watts": 200, "policy": "chaos", "nodes": [{"workloads": [{"benchmark": "x264"}]}]}`, 400},
		{"cluster create bad benchmark", "POST", "/v1/clusters", `{"budget_watts": 200, "nodes": [{"workloads": [{"benchmark": "nope"}]}]}`, 400},
		{"cluster budget bad body", "PUT", "/v1/clusters/" + liveCluster + "/budget", `nope`, 400},
		{"cluster budget zero", "PUT", "/v1/clusters/" + liveCluster + "/budget", `{"budget_watts": 0}`, 400},
		{"cluster node cap zero", "PUT", "/v1/clusters/" + liveCluster + "/nodes/0/cap", `{"cap_watts": 0}`, 400},
		{"cluster node cap bad body", "PUT", "/v1/clusters/" + liveCluster + "/nodes/0/cap", `nope`, 400},
		{"cluster fault both targets", "POST", "/v1/clusters/" + liveCluster + "/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0, "domain": "rack0"}`, 400},
		{"cluster fault no target", "POST", "/v1/clusters/" + liveCluster + "/faults", `{"kind": "crash", "target": "node", "duration_s": 1}`, 400},
		{"cluster fault bad kind", "POST", "/v1/clusters/" + liveCluster + "/faults", `{"kind": "melt", "target": "node", "duration_s": 1, "node": 0}`, 400},
		{"cluster stream zero buffer", "GET", "/v1/clusters/" + liveCluster + "/stream?buffer=0", "", 400},
		{"cluster stream bad max", "GET", "/v1/clusters/" + liveCluster + "/stream?max=-2", "", 400},
		{"cluster stream oversize buffer", "GET", "/v1/clusters/" + liveCluster + "/stream?buffer=4097", "", 400},

		// --- 404: unknown resources, node API.
		{"node get missing", "GET", "/v1/nodes/n999", "", 404},
		{"node cap missing", "PUT", "/v1/nodes/n999/cap", `{"cap_watts": 100}`, 404},
		{"node delete missing", "DELETE", "/v1/nodes/n999", "", 404},
		{"node stream missing", "GET", "/v1/nodes/n999/stream", "", 404},
		{"node fault missing", "POST", "/v1/nodes/n999/faults", fault, 404},
		{"node fault info missing", "GET", "/v1/nodes/n999/faults", "", 404},

		// --- 404: unknown resources, cluster API.
		{"cluster get missing", "GET", "/v1/clusters/c999", "", 404},
		{"cluster budget missing", "PUT", "/v1/clusters/c999/budget", `{"budget_watts": 200}`, 404},
		{"cluster node cap missing cluster", "PUT", "/v1/clusters/c999/nodes/0/cap", `{"cap_watts": 100}`, 404},
		{"cluster node cap missing node", "PUT", "/v1/clusters/" + liveCluster + "/nodes/99/cap", `{"cap_watts": 100}`, 404},
		{"cluster delete missing", "DELETE", "/v1/clusters/c999", "", 404},
		{"cluster stream missing", "GET", "/v1/clusters/c999/stream", "", 404},
		{"cluster fault missing", "POST", "/v1/clusters/c999/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0}`, 404},
		{"cluster fault missing node", "POST", "/v1/clusters/" + liveCluster + "/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 99}`, 404},
		{"cluster fault missing domain", "POST", "/v1/clusters/" + liveCluster + "/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "domain": "nowhere"}`, 404},
		{"cluster fault info missing", "GET", "/v1/clusters/c999/faults", "", 404},

		// --- 409: mutating or streaming a finished resource, node API.
		{"node cap done", "PUT", "/v1/nodes/" + doneNode + "/cap", `{"cap_watts": 100}`, 409},
		{"node fault done", "POST", "/v1/nodes/" + doneNode + "/faults", fault, 409},
		{"node stream done", "GET", "/v1/nodes/" + doneNode + "/stream", "", 409},

		// --- 409: mutating or streaming a finished resource, cluster API.
		{"cluster budget done", "PUT", "/v1/clusters/" + doneCluster + "/budget", `{"budget_watts": 300}`, 409},
		{"cluster node cap done", "PUT", "/v1/clusters/" + doneCluster + "/nodes/0/cap", `{"cap_watts": 100}`, 409},
		{"cluster fault done", "POST", "/v1/clusters/" + doneCluster + "/faults", `{"kind": "crash", "target": "node", "duration_s": 1, "node": 0}`, 409},
		{"cluster stream done", "GET", "/v1/clusters/" + doneCluster + "/stream", "", 409},

		// --- Reads and deletes stay legal on finished resources.
		{"node get done", "GET", "/v1/nodes/" + doneNode, "", 200},
		{"node fault info done", "GET", "/v1/nodes/" + doneNode + "/faults", "", 200},
		{"cluster get done", "GET", "/v1/clusters/" + doneCluster, "", 200},
		{"cluster fault info done", "GET", "/v1/clusters/" + doneCluster + "/faults", "", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doJSON(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d (body %v)",
					tc.method, tc.path, resp.StatusCode, tc.want, body)
			}
			if tc.want >= 400 {
				if msg, _ := body["error"].(string); msg == "" {
					t.Errorf("%s %s: error body missing message: %v", tc.method, tc.path, body)
				}
			}
		})
	}

	// An oversize stream buffer is refused with the limit named, so the
	// client can correct its request.
	_, body := doJSON(t, "GET", ts.URL+"/v1/nodes/"+liveNode+"/stream?buffer=4097", "")
	if msg, _ := body["error"].(string); !strings.Contains(msg, "4096") {
		t.Errorf("oversize buffer error %q does not name the 4096-sample limit", msg)
	}
}
