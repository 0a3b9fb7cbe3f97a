package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// healthClusterBody is a 4-node hierarchical cluster with fleet health
// tracking on, used by the fault API tests. The probe dwell is set far
// beyond any test horizon so a quarantined node stays benched: a free-run
// cluster races ahead of the HTTP client, and the assertions need a
// steady state, not a probe/re-quarantine oscillation.
const healthClusterBody = `{
	"name": "chaos-rig",
	"policy": "demand-shift",
	"budget_watts": 600,
	"free_run": true,
	"seed": 3,
	"health": {"probe_after_epochs": 1000000},
	"topology": {"nodes_per_rack": 2},
	"nodes": [
		{"technique": "RAPL", "workloads": [{"benchmark": "blackscholes", "threads": 32}]},
		{"technique": "RAPL", "workloads": [{"benchmark": "STREAM", "threads": 8}]},
		{"technique": "RAPL", "workloads": [{"benchmark": "swaptions", "threads": 32}]},
		{"technique": "RAPL", "workloads": [{"benchmark": "kmeans", "threads": 8}]}
	]
}`

// The fleet fault-tolerance acceptance scenario over REST: create a
// health-tracking cluster, crash one node through the fault endpoint,
// watch the stream report it quarantined with its budget reclaimed, read
// the transition log back, and find the health families in the exporter.
func TestClusterFaultAPIEndToEnd(t *testing.T) {
	_, ts := testClient(t)

	resp, created := doJSON(t, "POST", ts.URL+"/v1/clusters", healthClusterBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d body %v", resp.StatusCode, created)
	}
	id := created["id"].(string)
	nodes, _ := created["nodes"].([]any)
	if len(nodes) != 4 {
		t.Fatalf("created cluster has %d nodes: %v", len(nodes), created)
	}
	for i, n := range nodes {
		if h := n.(map[string]any)["health"]; h != "healthy" {
			t.Errorf("node %d created with health %v, want healthy", i, h)
		}
	}

	// Crash node 0 for longer than the test could ever observe: the
	// free-running cluster may step thousands of epochs before the stream
	// below attaches, and the crash must still be in force when it does.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/clusters/"+id+"/faults",
		`{"kind": "crash", "target": "node", "duration_s": 1000000, "node": 0}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("inject: status %d body %v", resp.StatusCode, body)
	}
	fnodes, _ := body["nodes"].([]any)
	if len(fnodes) != 1 {
		t.Fatalf("inject response lists %d nodes, want 1: %v", len(fnodes), body)
	}

	// Stream epochs until the health machinery benches the node and
	// reclaims its share down to the floor.
	stream, err := http.Get(ts.URL + "/v1/clusters/" + id + "/stream?buffer=256&max=400")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	benched := false
	for sc.Scan() {
		var smp ClusterSample
		if err := json.Unmarshal(sc.Bytes(), &smp); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if len(smp.NodeHealth) != 4 {
			t.Fatalf("health cluster sample carries %d health states, want 4: %+v", len(smp.NodeHealth), smp)
		}
		if smp.NodeHealth[0] == "quarantined" {
			benched = true
			if smp.Quarantined < 1 {
				t.Errorf("quarantined node but Quarantined = %d", smp.Quarantined)
			}
			if smp.ReclaimedWatts <= 0 {
				t.Errorf("quarantined node but ReclaimedWatts = %v", smp.ReclaimedWatts)
			}
			if smp.CapsWatts[0] > 25.000001 {
				t.Errorf("quarantined node holds %v W, want the 25 W floor", smp.CapsWatts[0])
			}
			break
		}
	}
	if !benched {
		t.Fatal("stream never reported the crashed node quarantined")
	}

	// The fault log has the onset and the health transitions.
	resp, info := doJSON(t, "GET", ts.URL+"/v1/clusters/"+id+"/faults", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("faults: status %d", resp.StatusCode)
	}
	if act := info["active"].(float64); act < 1 {
		t.Errorf("active = %v, want >= 1", act)
	}
	events, _ := info["events"].([]any)
	if len(events) == 0 {
		t.Error("fault log has no events after an observed onset")
	}
	hevents, _ := info["health_events"].([]any)
	if len(hevents) < 2 {
		t.Errorf("health log has %d events, want the suspect and quarantine transitions", len(hevents))
	}
	health, _ := info["health"].([]any)
	if len(health) != 4 || health[0] != "quarantined" {
		t.Errorf("health vector = %v, want node 0 quarantined", health)
	}
	if info["quarantined"].(float64) < 1 || info["reclaimed_watts"].(float64) <= 0 {
		t.Errorf("fault info quarantine accounting = %v / %v", info["quarantined"], info["reclaimed_watts"])
	}

	// The exporter carries the health families, state-labeled.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(metricsResp.Body).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	metrics := sb.String()
	for _, want := range []string{
		`pupil_cluster_node_health{cluster="` + id + `",domain="rack0",node="node0",state="quarantined"} 2`,
		`pupil_cluster_quarantined{cluster="` + id + `"}`,
		`pupil_cluster_budget_reclaimed_watts{cluster="` + id + `"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("exporter missing %q", want)
		}
	}
}

func TestClusterFaultAPIErrors(t *testing.T) {
	mgr, ts := testClient(t)

	resp, created := doJSON(t, "POST", ts.URL+"/v1/clusters", healthClusterBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d body %v", resp.StatusCode, created)
	}
	id := created["id"].(string)

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown cluster", "/v1/clusters/c99/faults", `{"kind":"crash","target":"node","duration_s":5,"node":0}`, 404},
		{"both targets", "/v1/clusters/" + id + "/faults", `{"kind":"crash","target":"node","duration_s":5,"node":0,"domain":"rack0"}`, 400},
		{"no target", "/v1/clusters/" + id + "/faults", `{"kind":"crash","target":"node","duration_s":5}`, 400},
		{"bad node index", "/v1/clusters/" + id + "/faults", `{"kind":"crash","target":"node","duration_s":5,"node":9}`, 404},
		{"unknown domain", "/v1/clusters/" + id + "/faults", `{"kind":"crash","target":"node","duration_s":5,"domain":"rack9"}`, 404},
		{"bad kind", "/v1/clusters/" + id + "/faults", `{"kind":"melt","target":"node","duration_s":5,"node":0}`, 400},
		{"flap without period", "/v1/clusters/" + id + "/faults", `{"kind":"flap","target":"node","duration_s":5,"node":0}`, 400},
		{"unknown field", "/v1/clusters/" + id + "/faults", `{"kind":"crash","target":"node","duration_s":5,"node":0,"bogus":1}`, 400},
		{"junk body", "/v1/clusters/" + id + "/faults", `{`, 400},
	}
	for _, tc := range cases {
		resp, body := doJSON(t, "POST", ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %v)", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// Node-scoped scenarios route through to the member node's injector:
	// a controller stall is accepted and listed.
	resp, body := doJSON(t, "POST", ts.URL+"/v1/clusters/"+id+"/faults",
		`{"kind":"stall","target":"controller","duration_s":2,"node":1}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("node-scoped inject: status %d body %v", resp.StatusCode, body)
	}

	// A rack-correlated fault by domain name is accepted.
	resp, body = doJSON(t, "POST", ts.URL+"/v1/clusters/"+id+"/faults",
		`{"kind":"corrupt","target":"demand-report","duration_s":2,"magnitude":4,"domain":"rack1"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("domain inject: status %d body %v", resp.StatusCode, body)
	}
	fnodes, _ := body["nodes"].([]any)
	hit := 0
	for _, n := range fnodes {
		idx := int(n.(map[string]any)["node"].(float64))
		if idx == 2 || idx == 3 {
			hit++
		}
	}
	if hit != 2 {
		t.Errorf("rack1 fault reached %d of its 2 nodes: %v", hit, body)
	}

	// Injection against a finished cluster is a 409 conflict.
	done, err := mgr.CreateCluster(ClusterConfig{
		BudgetWatts: 200, FreeRun: true, MaxSimS: 1, Seed: 1,
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "kmeans", Threads: 8}}},
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-done.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("MaxSimS cluster never finished")
	}
	resp, body = doJSON(t, "POST", ts.URL+"/v1/clusters/"+done.ID()+"/faults",
		`{"kind":"crash","target":"node","duration_s":5,"node":0}`)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("inject on done cluster: status %d body %v, want 409", resp.StatusCode, body)
	}
}

// Faults scheduled in the create request are live from epoch 0, and a
// health-off cluster keeps its exact pre-health JSON surface: no health
// keys in status or samples.
func TestClusterCreationFaultsAndHealthOffSurface(t *testing.T) {
	node0 := 0
	c, err := NewDetachedCluster(ClusterConfig{
		BudgetWatts: 300,
		Seed:        5,
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}}},
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
		Faults: []ClusterFaultConfig{
			{FaultConfig: FaultConfig{Kind: "hang", Target: "node", DurationS: 2}, Node: &node0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := c.FaultInfo()
	if len(info.Nodes) != 1 || info.Nodes[0].Node != 0 {
		t.Fatalf("creation fault not listed: %+v", info)
	}
	if info.Health != nil || info.Quarantined != 0 {
		t.Errorf("health-off cluster leaks health info: %+v", info)
	}

	for i := 0; i < 3; i++ {
		if !c.StepOnce() {
			t.Fatal("cluster stopped early")
		}
	}
	raw, err := json.Marshal(c.Status())
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"health"`, `"quarantined"`, `"reclaimed_watts"`, `"node_health"`} {
		if strings.Contains(string(raw), forbidden) {
			t.Errorf("health-off status carries %s: %s", forbidden, raw)
		}
	}
	if info := c.FaultInfo(); len(info.Events) == 0 {
		t.Error("hang onset never logged")
	}

	// Bad creation faults fail the create with a 400-class error.
	if _, err := NewDetachedCluster(ClusterConfig{
		BudgetWatts: 300, Seed: 5,
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
		Faults: []ClusterFaultConfig{
			{FaultConfig: FaultConfig{Kind: "crash", Target: "node", DurationS: 2}},
		},
	}); err == nil {
		t.Error("creation fault without a target was accepted")
	}
}

// Epoch samples handed to stream subscribers must not alias the epoch
// loop's reused scratch buffers: two consecutive samples carry distinct
// backing arrays, and a sample already in a ring never mutates.
func TestClusterSampleNoBufferAliasing(t *testing.T) {
	c, err := NewDetachedCluster(ClusterConfig{
		BudgetWatts: 300,
		Policy:      "demand-shift",
		Seed:        9,
		Health:      &ClusterHealthConfig{},
		Topology:    &ClusterTopologyConfig{NodesPerRack: 1},
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}}},
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if !c.StepOnce() || !c.StepOnce() {
		t.Fatal("cluster stopped early")
	}
	a, b := <-sub.C(), <-sub.C()
	if a.Epoch != 1 || b.Epoch != 2 {
		t.Fatalf("epochs %d, %d, want 1, 2", a.Epoch, b.Epoch)
	}
	if &a.CapsWatts[0] == &b.CapsWatts[0] {
		t.Error("consecutive samples share a caps backing array")
	}
	if &a.NodePowerWatts[0] == &b.NodePowerWatts[0] {
		t.Error("consecutive samples share a power backing array")
	}
	if &a.Domains[0] == &b.Domains[0] {
		t.Error("consecutive samples share a domains backing array")
	}
	if &a.NodeHealth[0] == &b.NodeHealth[0] {
		t.Error("consecutive samples share a health backing array")
	}
}

// A subscriber churn storm against a live cluster stream: concurrent
// subscribe/read/cancel cycles leak nothing, and a subscriber present at
// teardown still receives the final epoch snapshot before its channel
// closes.
func TestClusterStreamChurnStorm(t *testing.T) {
	before := runtime.NumGoroutine()
	mgr := NewManager()
	c, err := mgr.CreateCluster(ClusterConfig{
		BudgetWatts: 300,
		FreeRun:     true,
		Seed:        2,
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "kmeans", Threads: 8}}},
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const workers, cycles = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				sub, err := c.Subscribe(2)
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case smp, ok := <-sub.C():
					if ok && (smp.Epoch == 0 || len(smp.CapsWatts) != 2) {
						t.Errorf("malformed churn sample %+v", smp)
					}
				case <-time.After(15 * time.Second):
					t.Error("free-running cluster starved a subscriber")
				}
				sub.Cancel()
			}
		}()
	}
	wg.Wait()

	// The survivor keeps streaming across the teardown and sees the final
	// epoch before close. Read one sample first so the delete cannot win
	// the race before any epoch reaches the fresh ring.
	survivor, err := c.Subscribe(4096)
	if err != nil {
		t.Fatal(err)
	}
	var last ClusterSample
	select {
	case last = <-survivor.C():
	case <-time.After(10 * time.Second):
		t.Fatal("survivor received nothing from the free-running cluster")
	}
	if err := mgr.DeleteCluster(c.ID()); err != nil {
		t.Fatal(err)
	}
	for smp := range survivor.C() {
		last = smp
	}
	finalEpoch := c.Epoch()
	if last.Epoch != finalEpoch {
		t.Errorf("survivor's last sample is epoch %d, cluster finished at %d", last.Epoch, finalEpoch)
	}
	if survivor.Dropped() != 0 {
		t.Errorf("survivor dropped %d samples with a 4096 ring", survivor.Dropped())
	}

	if st := c.Status(); st.Subscribers != 0 {
		t.Errorf("churned cluster retains %d subscribers", st.Subscribers)
	}
	mgr.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across the stream churn storm", before, after)
	}
}
