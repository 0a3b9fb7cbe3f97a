package pipeline

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// staticCollector emits a fixed set of samples.
type staticCollector struct {
	fams    []MetricFamily
	samples []Sample
}

func (c staticCollector) Families() []MetricFamily      { return c.fams }
func (c staticCollector) Collect(out []Sample) []Sample { return append(out, c.samples...) }

// TestExpositionGolden pins the rendered page byte for byte: header
// layout, label order and escaping, and gauge/counter value formatting.
// Regenerate with -update.
func TestExpositionGolden(t *testing.T) {
	e := NewExposition()
	e.AddGatherer(staticCollector{
		fams: []MetricFamily{
			{Name: "pupil_power_watts", Help: "Instantaneous simulated node power draw in Watts.", Kind: Gauge},
			{Name: "pupil_epochs_total", Help: "Simulation ticks the node has executed.", Kind: Counter},
			{Name: "pupil_idle", Help: "A family with no samples still renders its header.", Kind: Gauge},
		},
		samples: []Sample{
			{Family: "pupil_power_watts", Node: "n1", Value: 96.53971823},
			{Family: "pupil_power_watts", Node: "n1", Zone: "package_0", Value: 48.25},
			{Family: "pupil_power_watts", Node: "n1", Zone: "package_0_dram", Value: 7.5},
			{Family: "pupil_power_watts", Cluster: "c1", Node: `we"ird\name` + "\n", Value: 12},
			{Family: "pupil_epochs_total", Node: "n1", Value: 1e6},     // integral: plain, not 1e+06
			{Family: "pupil_epochs_total", Node: "n2", Value: 1e16},    // too wide for plain: %g form
			{Family: "pupil_epochs_total", Node: "n3", Value: -0.0625}, // negative fraction
		},
	})

	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition page drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestExpositionServeHTTP pins the scrape content type.
func TestExpositionServeHTTP(t *testing.T) {
	e := NewExposition()
	e.AddGatherer(staticCollector{
		fams:    []MetricFamily{{Name: "pupil_up", Help: "Up.", Kind: Gauge}},
		samples: []Sample{{Family: "pupil_up", Value: 1}},
	})
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	if body := rec.Body.String(); !strings.Contains(body, "# TYPE pupil_up gauge\npupil_up 1\n") {
		t.Errorf("body = %q", body)
	}
}

// TestDomainLabel: the domain label renders between cluster and node.
func TestDomainLabel(t *testing.T) {
	s := Sample{Family: "pupil_cluster_domain_budget_watts", Cluster: "c1", Domain: "rack0", Value: 200}
	got := string(appendSample(nil, s))
	want := `pupil_cluster_domain_budget_watts{cluster="c1",domain="rack0"} 200` + "\n"
	if got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}
	withNode := Sample{Family: "pupil_cluster_node_cap_watts", Cluster: "c1", Domain: "rack0", Node: "n3", Value: 90}
	got = string(appendSample(nil, withNode))
	want = `pupil_cluster_node_cap_watts{cluster="c1",domain="rack0",node="n3"} 90` + "\n"
	if got != want {
		t.Errorf("rendered %q, want %q", got, want)
	}
	// A sample with no domain keeps its exact pre-domain byte layout.
	flat := Sample{Family: "pupil_cluster_budget_watts", Cluster: "c1", Value: 400}
	if got := string(appendSample(nil, flat)); got != `pupil_cluster_budget_watts{cluster="c1"} 400`+"\n" {
		t.Errorf("flat sample drifted: %q", got)
	}
}

func TestAppendValueFormats(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{1, "1"},
		{-3, "-3"},
		{1e6, "1000000"}, // counters never flip to exponent form
		{1e15, "1e+15"},  // beyond the plain-notation window
		{96.5, "96.5"},
		{0.0001, "0.0001"},
		{123456.789, "123456.789"},
	}
	for _, c := range cases {
		if got := string(appendValue(nil, c.v)); got != c.want {
			t.Errorf("appendValue(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestLabelEscapeRoundtrip(t *testing.T) {
	cases := []string{"", "plain", `back\slash`, `quo"te`, "new\nline", `all\"three` + "\n"}
	for _, c := range cases {
		esc := string(appendEscapedLabel(nil, c))
		if strings.ContainsAny(esc, "\n") {
			t.Errorf("escaped %q contains a raw newline: %q", c, esc)
		}
		if got := UnescapeLabel(esc); got != c {
			t.Errorf("roundtrip %q -> %q -> %q", c, esc, got)
		}
	}
	// Unknown escapes and trailing backslashes pass through.
	if got := UnescapeLabel(`\x\`); got != `\x\` {
		t.Errorf("UnescapeLabel(%q) = %q", `\x\`, got)
	}
}
