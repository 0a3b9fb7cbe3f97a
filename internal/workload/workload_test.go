package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTwentyProfiles(t *testing.T) {
	if got := len(All()); got != 20 {
		t.Fatalf("have %d benchmark profiles, want 20", got)
	}
}

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if err := Calibration().Validate(); err != nil {
		t.Errorf("calibration: %v", err)
	}
}

func TestByNameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ByName("no-such-benchmark"); err == nil {
		t.Errorf("ByName accepted unknown benchmark")
	}
}

func TestAllReturnsCopy(t *testing.T) {
	a := All()
	a[0].Name = "mutated"
	if All()[0].Name == "mutated" {
		t.Errorf("All exposes internal storage")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := Calibration()
	cases := []struct {
		name string
		mut  func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"zero rate", func(p *Profile) { p.BaseRate = 0 }},
		{"negative sigma", func(p *Profile) { p.Sigma = -0.1 }},
		{"ht yield too low", func(p *Profile) { p.HTYield = -0.5 }},
		{"mem intensity high", func(p *Profile) { p.MemIntensity = 1.5 }},
		{"serial frac one", func(p *Profile) { p.SerialFrac = 1 }},
		{"zero ipc", func(p *Profile) { p.IPC = 0 }},
		{"phase amp without period", func(p *Profile) { p.PhaseAmp = 0.1; p.PhasePeriod = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mut(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

// TestPaperCharacterizations checks the qualitative per-application
// properties the paper's results depend on.
func TestPaperCharacterizations(t *testing.T) {
	get := func(name string) Profile {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if x := get("x264"); x.HTYield >= 0 {
		t.Errorf("x264 HTYield = %g, want negative (hyperthreading hurts it)", x.HTYield)
	}
	if k := get("kmeans"); k.CrossKappa < 50*k.Kappa {
		t.Errorf("kmeans cross-socket coherence should dominate within-socket")
	}
	for _, name := range []string{"kmeans", "kmeans_fuzzy", "dijkstra"} {
		if p := get(name); p.Sync != SyncPolling {
			t.Errorf("%s should use polling synchronization", name)
		}
	}
	if s := get("STREAM"); s.MemIntensity < 0.9 {
		t.Errorf("STREAM MemIntensity = %g, want near 1", s.MemIntensity)
	}
	if d := get("dijkstra"); d.Sigma < 0.3 {
		t.Errorf("dijkstra Sigma = %g, want large (limited parallelism)", d.Sigma)
	}
	// STREAM must have the highest bandwidth demand, jacobi second
	// (Fig. 5: STREAM highest bandwidth, jacobi second highest).
	demand := func(p Profile) float64 { return p.GBPerUnit }
	stream, jacobi := get("STREAM"), get("jacobi")
	for _, p := range All() {
		if p.Name != "STREAM" && demand(p) >= demand(stream) {
			t.Errorf("%s bandwidth demand %g >= STREAM's %g", p.Name, demand(p), demand(stream))
		}
		if p.Name != "STREAM" && p.Name != "jacobi" && demand(p) >= demand(jacobi) {
			t.Errorf("%s bandwidth demand %g >= jacobi's %g", p.Name, demand(p), demand(jacobi))
		}
	}
}

func TestCalibrationIsEmbarrassinglyParallel(t *testing.T) {
	c := Calibration()
	if c.Sigma != 0 || c.Kappa != 0 || c.CrossKappa != 0 {
		t.Errorf("calibration workload must have zero USL coefficients, got sigma=%g kappa=%g cross=%g",
			c.Sigma, c.Kappa, c.CrossKappa)
	}
	if c.Sync != SyncNone {
		t.Errorf("calibration workload must have no inter-thread communication")
	}
}

func TestSpeedupProperties(t *testing.T) {
	// Speedup(1) == 1 for every profile; speedup never exceeds n; the
	// cross-socket variant never beats the within-socket one.
	f := func(nRaw uint8, idx uint8) bool {
		p := profiles[int(idx)%len(profiles)]
		n := 1 + float64(nRaw%32)
		s := p.Speedup(n, false)
		sx := p.Speedup(n, true)
		return s <= n+1e-9 && sx <= s+1e-9 && p.Speedup(1, false) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpeedupMonotoneForScalableApps(t *testing.T) {
	p, _ := ByName("blackscholes")
	prev := 0.0
	for n := 1.0; n <= 32; n++ {
		s := p.Speedup(n, false)
		if s <= prev {
			t.Fatalf("blackscholes speedup not monotone at n=%g: %g after %g", n, s, prev)
		}
		prev = s
	}
}

func TestDijkstraSpeedupSaturates(t *testing.T) {
	p, _ := ByName("dijkstra")
	if s := p.Speedup(32, false); s > 3 {
		t.Errorf("dijkstra speedup at 32 threads = %g, want < 3 (limited parallelism)", s)
	}
}

func TestKmeansRetrogradeAcrossSockets(t *testing.T) {
	p, _ := ByName("kmeans")
	within := p.Speedup(16, false)
	spanning := p.Speedup(32, true)
	if spanning >= within {
		t.Errorf("kmeans spanning-socket speedup %g should fall below within-socket %g", spanning, within)
	}
}

func TestPhaseFactorBounds(t *testing.T) {
	p, _ := ByName("x264")
	for s := 0; s < 100; s++ {
		f := p.PhaseFactor(time.Duration(s) * 100 * time.Millisecond)
		if f < 1-p.PhaseAmp-1e-9 || f > 1+p.PhaseAmp+1e-9 {
			t.Fatalf("PhaseFactor = %g outside [%g, %g]", f, 1-p.PhaseAmp, 1+p.PhaseAmp)
		}
	}
	c := Calibration()
	if c.PhaseFactor(3*time.Second) != 1 {
		t.Errorf("phase-free profile should have factor exactly 1")
	}
}

func TestMixesMatchTable4(t *testing.T) {
	ms := Mixes()
	if len(ms) != 12 {
		t.Fatalf("have %d mixes, want 12", len(ms))
	}
	for _, m := range ms {
		if len(m.Names) != 4 {
			t.Errorf("%s has %d applications, want 4", m.Name, len(m.Names))
		}
		if _, err := m.Profiles(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	m8, err := MixByName("mix8")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"kmeans", "dijkstra", "x264", "STREAM"}
	for i, n := range want {
		if m8.Names[i] != n {
			t.Errorf("mix8[%d] = %s, want %s", i, m8.Names[i], n)
		}
	}
	if _, err := MixByName("mix99"); err == nil {
		t.Errorf("MixByName accepted unknown mix")
	}
}

// TestMixCompositionSets verifies the blue/red set structure of Table 4:
// mixes 1-4 contain no polling or pathological apps, mixes 5-8 are built
// entirely from the RAPL-poor set.
func TestMixCompositionSets(t *testing.T) {
	raplPoor := map[string]bool{
		"x264": true, "dijkstra": true, "vips": true, "HOP": true,
		"STREAM": true, "kmeans": true, "kmeans_fuzzy": true,
	}
	for _, m := range Mixes()[:4] {
		for _, n := range m.Names {
			if raplPoor[n] {
				t.Errorf("%s contains RAPL-poor app %s, mixes 1-4 must not", m.Name, n)
			}
		}
	}
	for _, m := range Mixes()[4:8] {
		for _, n := range m.Names {
			if !raplPoor[n] {
				t.Errorf("%s contains RAPL-good app %s, mixes 5-8 must not", m.Name, n)
			}
		}
	}
	for _, m := range Mixes()[8:12] {
		poor := 0
		for _, n := range m.Names {
			if raplPoor[n] {
				poor++
			}
		}
		if poor != 2 {
			t.Errorf("%s has %d RAPL-poor apps, want 2", m.Name, poor)
		}
	}
}

func TestNewInstances(t *testing.T) {
	p, _ := ByName("x264")
	apps, err := NewInstances(Specs([]Profile{p, p}, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].ID != 0 || apps[1].ID != 1 {
		t.Errorf("NewInstances IDs wrong: %+v", apps)
	}
	if TotalThreads(apps) != 16 {
		t.Errorf("TotalThreads = %d, want 16", TotalThreads(apps))
	}
	if _, err := NewInstances([]Spec{{Profile: p, Threads: 0}}); err == nil {
		t.Errorf("NewInstances accepted zero threads")
	}
	if _, err := NewInstances([]Spec{{Profile: Profile{}, Threads: 1}}); err == nil {
		t.Errorf("NewInstances accepted invalid profile")
	}
}

func TestInstanceAdvance(t *testing.T) {
	p, _ := ByName("swaptions")
	apps, _ := NewInstances([]Spec{{Profile: p, Threads: 4}})
	in := apps[0]
	in.Advance(10, 0.5)
	in.Advance(20, 0.5)
	if math.Abs(in.Progress-15) > 1e-9 {
		t.Errorf("Progress = %g, want 15", in.Progress)
	}
	if in.LastRate != 20 {
		t.Errorf("LastRate = %g, want 20", in.LastRate)
	}
}
