package server

import (
	"bufio"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// thermalNodeConfig is a hot thermally constrained node: ambient raised so
// the junction climbs well above it within a few simulated seconds.
func thermalNodeConfig() NodeConfig {
	return NodeConfig{
		Platform:        "thermal",
		Technique:       "RAPL",
		CapWatts:        220,
		Seed:            9,
		TickSimMS:       1000,
		Thermal:         &ThermalConfig{AmbientC: 45},
		ThermalGovernor: true,
		Workloads:       []WorkloadConfig{{Benchmark: "swaptions", Threads: 32}},
	}
}

// A thermal node surfaces per-socket junction state in Status and in the
// per-tick stream samples; a default-platform node reports its (cool,
// ungoverned) junction state too, since every built-in platform carries a
// thermal model.
func TestThermalNodeSurfacesState(t *testing.T) {
	n, err := NewDetachedNode(thermalNodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	for i := 0; i < 30; i++ {
		if !n.StepOnce() {
			t.Fatalf("node stopped at step %d", i)
		}
	}
	st := n.Status()
	if len(st.Thermal) != 2 {
		t.Fatalf("status thermal entries = %d, want 2", len(st.Thermal))
	}
	for s, th := range st.Thermal {
		if want := "package_" + string(rune('0'+s)); th.Zone != want {
			t.Errorf("zone %d label %q, want %q", s, th.Zone, want)
		}
		if th.TempC <= 45 {
			t.Errorf("zone %s at %.1f C never warmed above the 45 C ambient", th.Zone, th.TempC)
		}
		if th.CapScale <= 0 || th.CapScale > 1 {
			t.Errorf("zone %s cap scale %.2f outside (0, 1]", th.Zone, th.CapScale)
		}
	}
	select {
	case smp := <-sub.C():
		if len(smp.Thermal) != 2 {
			t.Errorf("stream sample thermal entries = %d, want 2", len(smp.Thermal))
		}
	default:
		t.Error("no stream sample delivered after 30 ticks")
	}

	plain, err := NewDetachedNode(NodeConfig{
		Technique: "RAPL", CapWatts: 140, TickSimMS: 1000, Seed: 9,
		Workloads: []WorkloadConfig{{Benchmark: "swaptions", Threads: 32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain.StepOnce()
	for _, th := range plain.Status().Thermal {
		if th.Throttled || th.Governed || th.CapScale != 1 {
			t.Errorf("cool default-platform zone %s reports protection active: %+v", th.Zone, th)
		}
	}
}

// Malformed thermal overrides map to ErrBadConfig, not engine panics or
// opaque 500s: the merged model is rejected exactly where the engine
// would reject it.
func TestThermalConfigValidation(t *testing.T) {
	base := NodeConfig{
		Technique: "RAPL", CapWatts: 140,
		Workloads: []WorkloadConfig{{Benchmark: "swaptions", Threads: 32}},
	}
	cases := []struct {
		name   string
		mutate func(*NodeConfig)
	}{
		{"negative thermal resistance", func(c *NodeConfig) {
			c.Thermal = &ThermalConfig{RthCPerW: -1}
		}},
		{"trip point below ambient", func(c *NodeConfig) {
			c.Platform = "thermal"
			c.Thermal = &ThermalConfig{TjMaxC: 10}
		}},
		{"throttle duty above one", func(c *NodeConfig) {
			c.Platform = "thermal"
			c.Thermal = &ThermalConfig{ThrottleDuty: 1.5}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := NewDetachedNode(cfg)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

// The thermal metric families render on /metrics exactly when a live node
// carries thermal state — thermal-free deployments scrape the identical
// pre-thermal page (the empty-manager case is pinned byte-for-byte by
// TestMetricsEmptyGolden).
func TestThermalMetricsExposure(t *testing.T) {
	mgr, ts := testClient(t)

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			b.WriteString(sc.Text() + "\n")
		}
		return b.String()
	}

	if body := scrape(); strings.Contains(body, "pupil_temp_celsius") {
		t.Fatalf("thermal families rendered with no node live:\n%s", body)
	}

	cfg := thermalNodeConfig()
	cfg.FreeRun = true
	n, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var body string
	for {
		body = scrape()
		if strings.Contains(body, `pupil_temp_celsius{node="`+n.ID()+`",zone="package_0"}`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("thermal samples never appeared on /metrics:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, want := range []string{
		"# TYPE pupil_temp_celsius gauge",
		"# TYPE pupil_thermal_throttled gauge",
		`pupil_temp_celsius{node="` + n.ID() + `",zone="package_1"}`,
		`pupil_thermal_throttled{node="` + n.ID() + `",zone="package_0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}
