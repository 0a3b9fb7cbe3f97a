package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// createNode posts cfg and returns the new node's ID.
func createNode(t *testing.T, url, body string) string {
	t.Helper()
	resp, created := doJSON(t, "POST", url+"/v1/nodes", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d body %v", resp.StatusCode, created)
	}
	id, _ := created["id"].(string)
	if id == "" {
		t.Fatalf("create returned no id: %v", created)
	}
	return id
}

// TestFaultAPIValidation: malformed fault requests are rejected with 400
// before touching the node, mirroring the invalid-cap handling; structural
// errors map to 404 and 409.
func TestFaultAPIValidation(t *testing.T) {
	_, ts := testClient(t)
	id := createNode(t, ts.URL, `{
		"technique": "RAPL", "cap_watts": 140, "free_run": true,
		"workloads": [{"benchmark": "jacobi", "threads": 32}]
	}`)

	bad := []struct {
		name, body string
	}{
		{"negative duration", `{"kind":"stall","target":"controller","duration_s":-1}`},
		{"zero duration", `{"kind":"stall","target":"controller"}`},
		{"unknown kind", `{"kind":"gremlin","target":"controller","duration_s":5}`},
		{"unknown target", `{"kind":"stuck","target":"gpu","duration_s":5}`},
		{"kind/target mismatch", `{"kind":"stall","target":"power-sensor","duration_s":5}`},
		{"dropout probability above one", `{"kind":"dropout","target":"power-sensor","duration_s":5,"magnitude":1.5}`},
		{"negative onset", `{"kind":"stall","target":"controller","onset_s":-2,"duration_s":5}`},
		{"unknown field", `{"kind":"stall","target":"controller","duration_s":5,"severity":"extreme"}`},
	}
	for _, tc := range bad {
		resp, body := doJSON(t, "POST", ts.URL+"/v1/nodes/"+id+"/faults", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %v, want 400", tc.name, resp.StatusCode, body)
		}
	}

	resp, _ := doJSON(t, "POST", ts.URL+"/v1/nodes/nope/faults", `{"kind":"stall","target":"controller","duration_s":5}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown node: status %d, want 404", resp.StatusCode)
	}

	// A node whose run has ended refuses injection with 409.
	done := createNode(t, ts.URL, `{
		"technique": "RAPL", "cap_watts": 140, "free_run": true, "max_sim_s": 0.5,
		"workloads": [{"benchmark": "jacobi", "threads": 32}]
	}`)
	waitForState(t, ts.URL, done, StateDone)
	resp, body := doJSON(t, "POST", ts.URL+"/v1/nodes/"+done+"/faults", `{"kind":"stall","target":"controller","duration_s":5}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("finished node: status %d body %v, want 409", resp.StatusCode, body)
	}

	// Bad faults in the creation config are rejected up front, too.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/nodes", `{
		"technique": "RAPL", "cap_watts": 140, "free_run": true,
		"workloads": [{"benchmark": "jacobi", "threads": 32}],
		"faults": [{"kind":"stall","target":"controller","duration_s":-3}]
	}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("create with bad fault: status %d body %v, want 400", resp.StatusCode, body)
	}
}

func waitForState(t *testing.T, url, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, st := doJSON(t, "GET", url+"/v1/nodes/"+id, "")
		if st["state"] == string(want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %s never reached state %s", id, want)
}

// TestFaultInjectionLifecycle injects a stall over the API into a running
// supervised node and watches it take effect: the fault shows up in GET
// /faults, the stream flags degradation, and the status reports the
// hardware-only rung.
func TestFaultInjectionLifecycle(t *testing.T) {
	_, ts := testClient(t)
	id := createNode(t, ts.URL, `{
		"technique": "PUPiL", "cap_watts": 140, "free_run": true, "watchdog": true, "seed": 5,
		"workloads": [{"benchmark": "blackscholes", "threads": 32}]
	}`)

	// The node free-runs, so simulated time races far ahead of the test's
	// wall clock: the fault must outlast the whole test in simulated time,
	// or it expires (and the watchdog recovers) before the stream check
	// below ever attaches.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/nodes/"+id+"/faults",
		`{"kind":"stall","target":"controller","onset_s":1,"duration_s":600000}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject: status %d body %v", resp.StatusCode, body)
	}
	scenarios, _ := body["scenarios"].([]any)
	if len(scenarios) != 1 {
		t.Fatalf("inject response scenarios = %v", body["scenarios"])
	}

	deadline := time.Now().Add(15 * time.Second)
	degraded := false
	for time.Now().Before(deadline) && !degraded {
		_, st := doJSON(t, "GET", ts.URL+"/v1/nodes/"+id, "")
		if st["degrade_level"] == "hardware-only" {
			degraded = true
			if n, _ := st["faults_active"].(float64); n < 1 {
				t.Errorf("degraded node reports %v active faults", st["faults_active"])
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !degraded {
		t.Fatal("stalled node never degraded to hardware-only")
	}

	_, info := doJSON(t, "GET", ts.URL+"/v1/nodes/"+id+"/faults", "")
	events, _ := info["events"].([]any)
	if len(events) == 0 {
		t.Error("fault log recorded no onset event")
	}

	// The stream must carry the degradation flag.
	stream, err := http.Get(ts.URL + "/v1/nodes/" + id + "/stream?max=5")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	sawDegraded := false
	for sc.Scan() {
		var smp Sample
		if err := json.Unmarshal(sc.Bytes(), &smp); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if smp.Degraded && smp.FaultsActive > 0 {
			sawDegraded = true
		}
	}
	if !sawDegraded {
		t.Error("stream never flagged the degraded node")
	}
}

// TestNodePanicIsolated: a session blowing up mid-tick must not take the
// daemon down — the node lands in state failed with its reason queryable,
// while other nodes keep running and streaming.
func TestNodePanicIsolated(t *testing.T) {
	mgr, ts := testClient(t)
	victimID := createNode(t, ts.URL, `{
		"name": "victim", "technique": "RAPL", "cap_watts": 140, "free_run": true,
		"workloads": [{"benchmark": "jacobi", "threads": 32}]
	}`)
	bystanderID := createNode(t, ts.URL, `{
		"name": "bystander", "technique": "RAPL", "cap_watts": 140, "free_run": true,
		"workloads": [{"benchmark": "jacobi", "threads": 32}]
	}`)

	victim, ok := mgr.Get(victimID)
	if !ok {
		t.Fatal("victim vanished")
	}
	// Sabotage the session so the next tick panics inside Advance — the
	// same shape as a controller or model bug escaping the simulation.
	victim.mu.Lock()
	victim.sess = nil
	victim.mu.Unlock()

	select {
	case <-victim.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("victim's tick loop did not exit after the panic")
	}

	st := victim.Status()
	if st.State != StateFailed {
		t.Fatalf("victim state = %s, want failed", st.State)
	}
	if !strings.Contains(st.FailReason, "session panic") {
		t.Errorf("victim fail reason = %q", st.FailReason)
	}

	// The failure is visible over the API without touching the dead session.
	_, listing := doJSON(t, "GET", ts.URL+"/v1/nodes", "")
	nodes, _ := listing["nodes"].([]any)
	found := false
	for _, v := range nodes {
		n, _ := v.(map[string]any)
		if n["id"] == victimID {
			found = true
			if n["state"] != string(StateFailed) {
				t.Errorf("listing shows victim as %v", n["state"])
			}
			if n["fail_reason"] == "" {
				t.Error("listing omits the failure reason")
			}
		}
	}
	if !found {
		t.Error("failed node missing from the listing")
	}

	// /metrics counts the failure.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics strings.Builder
	sc := bufio.NewScanner(metricsResp.Body)
	for sc.Scan() {
		metrics.WriteString(sc.Text() + "\n")
	}
	metricsResp.Body.Close()
	if !strings.Contains(metrics.String(), "pupil_nodes_failed 1") {
		t.Error("exporter does not count the failed node")
	}

	// The bystander is unaffected: its stream still delivers samples.
	stream, err := http.Get(ts.URL + "/v1/nodes/" + bystanderID + "/stream?max=3")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	got := 0
	bsc := bufio.NewScanner(stream.Body)
	for bsc.Scan() {
		var smp Sample
		if err := json.Unmarshal(bsc.Bytes(), &smp); err != nil {
			t.Fatalf("bystander stream line %q: %v", bsc.Text(), err)
		}
		got++
	}
	if got != 3 {
		t.Errorf("bystander stream delivered %d samples, want 3", got)
	}

	// Deleting a failed node still works.
	resp, _ := doJSON(t, "DELETE", ts.URL+"/v1/nodes/"+victimID, "")
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete failed node: status %d", resp.StatusCode)
	}
}

// TestSlowSubscriberDuringFaultStream: a subscriber that never reads must
// not stall a faulted node's tick loop — samples drop (counted), memory
// stays bounded by the ring, and a live subscriber keeps receiving.
func TestSlowSubscriberDuringFaultStream(t *testing.T) {
	mgr, ts := testClient(t)
	id := createNode(t, ts.URL, `{
		"technique": "PUPiL", "cap_watts": 140, "free_run": true, "watchdog": true, "seed": 5,
		"workloads": [{"benchmark": "blackscholes", "threads": 32}],
		"faults": [
			{"kind":"stall","target":"controller","onset_s":1,"duration_s":600},
			{"kind":"spike","target":"power-sensor","onset_s":1,"duration_s":600,"magnitude":0.5}
		]
	}`)
	n, ok := mgr.Get(id)
	if !ok {
		t.Fatal("node vanished")
	}

	// The stuck consumer: tiny ring, never read.
	stuck, err := n.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Cancel()

	start := n.Epoch()
	deadline := time.Now().Add(10 * time.Second)
	for n.Epoch() < start+50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if advanced := n.Epoch() - start; advanced < 50 {
		t.Fatalf("node advanced only %d epochs behind a stuck subscriber", advanced)
	}
	if stuck.Dropped() == 0 {
		t.Error("stuck subscriber dropped nothing after 50+ epochs with a 2-slot ring")
	}

	// A live subscriber still sees fresh faulted samples.
	live, err := n.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Cancel()
	sawFault := false
	timeout := time.After(10 * time.Second)
	for !sawFault {
		select {
		case smp, open := <-live.C():
			if !open {
				t.Fatal("live subscriber channel closed early")
			}
			if smp.FaultsActive > 0 {
				sawFault = true
			}
		case <-timeout:
			t.Fatal("live subscriber never saw a faulted sample")
		}
	}

	_ = ts
}
