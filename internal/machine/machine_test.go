package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestE52690Validates(t *testing.T) {
	p := E52690Server()
	if err := p.Validate(); err != nil {
		t.Fatalf("reference platform invalid: %v", err)
	}
}

func TestReferenceTopologyMatchesTable1(t *testing.T) {
	p := E52690Server()
	if got := p.HWThreads(); got != 32 {
		t.Errorf("HWThreads = %d, want 32", got)
	}
	if got := p.NumFreqSettings(); got != 16 {
		t.Errorf("NumFreqSettings = %d, want 16 (15 p-states + turbo)", got)
	}
	if got := p.NumConfigurations(); got != 1024 {
		t.Errorf("NumConfigurations = %d, want 1024", got)
	}
	if p.MinGHz() != 1.2 {
		t.Errorf("MinGHz = %g, want 1.2", p.MinGHz())
	}
	if math.Abs(p.BaseGHz()-2.9) > 1e-9 {
		t.Errorf("BaseGHz = %g, want 2.9", p.BaseGHz())
	}
	if p.SocketTDP != 135 {
		t.Errorf("SocketTDP = %g, want 135", p.SocketTDP)
	}
}

func TestValidateRejectsBrokenPlatforms(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Platform)
	}{
		{"no sockets", func(p *Platform) { p.Sockets = 0 }},
		{"no cores", func(p *Platform) { p.CoresPerSocket = 0 }},
		{"no threads", func(p *Platform) { p.ThreadsPerCore = 0 }},
		{"no memctls", func(p *Platform) { p.MemCtls = 0 }},
		{"no p-states", func(p *Platform) { p.FreqsGHz = nil }},
		{"unsorted p-states", func(p *Platform) { p.FreqsGHz = []float64{2.0, 1.2} }},
		{"turbo below top p-state", func(p *Platform) { p.TurboGHz = 2.0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := E52690Server()
			c.mut(p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate accepted broken platform (%s)", c.name)
			}
		})
	}
}

func TestFreqAtOrderingAndClamping(t *testing.T) {
	p := E52690Server()
	prev := 0.0
	for i := 0; i < p.NumFreqSettings(); i++ {
		f := p.FreqAt(i)
		if f <= prev {
			t.Fatalf("FreqAt(%d) = %g not strictly above FreqAt(%d) = %g", i, f, i-1, prev)
		}
		prev = f
	}
	if p.FreqAt(p.NumFreqSettings()-1) != p.TurboGHz {
		t.Errorf("top setting = %g, want turbo %g", p.FreqAt(p.NumFreqSettings()-1), p.TurboGHz)
	}
	if p.FreqAt(-5) != p.MinGHz() {
		t.Errorf("negative index should clamp to MinGHz")
	}
	if p.FreqAt(99) != p.TurboGHz {
		t.Errorf("oversized index should clamp to top setting")
	}
}

func TestVoltageMonotoneInFrequency(t *testing.T) {
	p := E52690Server()
	prev := 0.0
	for i := 0; i < p.NumFreqSettings(); i++ {
		v := p.VoltAt(p.FreqAt(i))
		if v <= prev {
			t.Fatalf("voltage not increasing: V(%g GHz) = %g after %g", p.FreqAt(i), v, prev)
		}
		prev = v
	}
}

func TestCoreDynPowerConvexInFrequency(t *testing.T) {
	p := E52690Server()
	// P = C V(f)^2 f must grow faster than linearly in f: doubling
	// frequency more than doubles power.
	lo := p.CoreDynPower(1.2)
	hi := p.CoreDynPower(2.4)
	if hi <= 2*lo {
		t.Errorf("dynamic power not superlinear: P(2.4)=%g <= 2*P(1.2)=%g", hi, 2*lo)
	}
}

func TestMinimalAndMaxConfig(t *testing.T) {
	p := E52690Server()
	min := MinimalConfig(p)
	if min.TotalCores() != 1 || min.HT || min.MemCtls != 1 || min.Freq[0] != 0 {
		t.Errorf("MinimalConfig = %v, want 1 core, no HT, 1 mc, lowest speed", min)
	}
	max := MaxConfig(p)
	if max.HWThreads() != 32 {
		t.Errorf("MaxConfig HWThreads = %d, want 32", max.HWThreads())
	}
	if got := max.EffectiveGHz(p, 0); got != p.TurboGHz {
		t.Errorf("MaxConfig socket 0 freq = %g, want turbo %g", got, p.TurboGHz)
	}
}

func TestConfigNormalizeClamps(t *testing.T) {
	p := E52690Server()
	c := Config{Cores: 99, Sockets: -1, MemCtls: 7, HT: true}
	n := c.Normalize(p)
	if n.Cores != p.CoresPerSocket || n.Sockets != 1 || n.MemCtls != p.MemCtls {
		t.Errorf("Normalize = %+v, want clamped fields", n)
	}
	if len(n.Freq) != p.Sockets || len(n.Duty) != p.Sockets {
		t.Errorf("Normalize did not fill per-socket slices: %+v", n)
	}
	for _, d := range n.Duty {
		if d <= 0 || d > 1 {
			t.Errorf("Normalize produced duty %g outside (0,1]", d)
		}
	}
}

func TestConfigCloneIsDeep(t *testing.T) {
	p := E52690Server()
	a := MaxConfig(p)
	b := a.Clone()
	b.Freq[0] = 0
	b.Duty[1] = 0.5
	if a.Freq[0] == 0 || a.Duty[1] == 0.5 {
		t.Errorf("Clone shares slice storage with original")
	}
}

func TestConfigEqual(t *testing.T) {
	p := E52690Server()
	a, b := MaxConfig(p), MaxConfig(p)
	if !a.Equal(b) {
		t.Errorf("identical configs not Equal")
	}
	b.Freq[1] = 3
	if a.Equal(b) {
		t.Errorf("configs with different per-socket speed reported Equal")
	}
}

func TestEnumerateCountsFullSpace(t *testing.T) {
	p := E52690Server()
	n := 0
	Enumerate(p, func(Config) bool { n++; return true })
	if n != p.NumConfigurations() {
		t.Errorf("Enumerate visited %d configs, want %d", n, p.NumConfigurations())
	}
}

func TestEnumerateStopsEarly(t *testing.T) {
	p := E52690Server()
	n := 0
	Enumerate(p, func(Config) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("Enumerate visited %d configs after early stop, want 10", n)
	}
}

func TestEnumerateConfigsAreValidProperty(t *testing.T) {
	p := E52690Server()
	Enumerate(p, func(c Config) bool {
		norm := c.Normalize(p)
		if !c.Equal(norm) {
			t.Fatalf("enumerated config %v differs from its normalization %v", c, norm)
		}
		return true
	})
}

func TestPowerMonotoneInFrequencyProperty(t *testing.T) {
	p := E52690Server()
	full := func(c Config) []SocketLoad {
		loads := make([]SocketLoad, p.Sockets)
		for s := range loads {
			loads[s] = SocketLoad{BusyCores: float64(c.ActiveCores(s)), HTShare: 1}
		}
		return loads
	}
	f := func(coresRaw, freqRaw uint8) bool {
		cores := int(coresRaw)%p.CoresPerSocket + 1
		fi := int(freqRaw) % (p.NumFreqSettings() - 1)
		lo := Config{Cores: cores, Sockets: 2, HT: true, MemCtls: 2}.Normalize(p)
		for s := range lo.Freq {
			lo.Freq[s] = fi
		}
		hi := lo.Clone()
		for s := range hi.Freq {
			hi.Freq[s] = fi + 1
		}
		pl, _ := p.Power(lo, full(lo))
		ph, _ := p.Power(hi, full(hi))
		return ph > pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerMonotoneInCoresProperty(t *testing.T) {
	p := E52690Server()
	f := func(coresRaw uint8, ht bool) bool {
		cores := int(coresRaw)%(p.CoresPerSocket-1) + 1
		mk := func(n int) (Config, []SocketLoad) {
			c := Config{Cores: n, Sockets: 2, HT: ht, MemCtls: 2}.Normalize(p)
			loads := make([]SocketLoad, p.Sockets)
			for s := range loads {
				loads[s] = SocketLoad{BusyCores: float64(n)}
			}
			return c, loads
		}
		cl, ll := mk(cores)
		ch, lh := mk(cores + 1)
		pl, _ := p.Power(cl, ll)
		ph, _ := p.Power(ch, lh)
		return ph > pl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSocketPowerRespectsTDP(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	w := p.SocketPower(c, 0, SocketLoad{BusyCores: 8, HTShare: 1, BWGBs: 100})
	if w > p.SocketTDP {
		t.Errorf("socket power %g exceeds TDP %g", w, p.SocketTDP)
	}
}

func TestParkedSocketDrawsParkedPower(t *testing.T) {
	p := E52690Server()
	c := Config{Cores: 4, Sockets: 1, MemCtls: 1}.Normalize(p)
	if got := p.SocketPower(c, 1, SocketLoad{BusyCores: 8}); got != p.SocketParked {
		t.Errorf("parked socket power = %g, want %g", got, p.SocketParked)
	}
}

// TestSixtyWattCapInfeasibleForDVFSOnly checks the property behind the
// paper's missing Soft-DVFS data at 60 W: with all cores and hyperthreads
// active, even the lowest p-state exceeds a 60 W machine-wide cap.
func TestSixtyWattCapInfeasibleForDVFSOnly(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	for s := range c.Freq {
		c.Freq[s] = 0
	}
	loads := make([]SocketLoad, p.Sockets)
	for s := range loads {
		loads[s] = SocketLoad{BusyCores: 8, HTShare: 1, StallFrac: 0.3, BWGBs: 20}
	}
	total, _ := p.Power(c, loads)
	if total <= 60 {
		t.Errorf("lowest p-state with 32 busy threads draws %.1f W, want > 60 W", total)
	}
}

// TestFullTiltUnderTwiceTDP checks the upper end of the calibration: the
// machine flat out draws well under 2x135 W (the paper notes sustaining TDP
// is extremely rare) yet above the largest evaluated cap of 220 W.
func TestFullTiltPowerEnvelope(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	loads := make([]SocketLoad, p.Sockets)
	for s := range loads {
		loads[s] = SocketLoad{BusyCores: 8, HTShare: 1, StallFrac: 0.1, BWGBs: 30}
	}
	total, _ := p.Power(c, loads)
	if total <= 220 {
		t.Errorf("full-tilt power %.1f W should exceed the 220 W cap", total)
	}
	if total >= 270 {
		t.Errorf("full-tilt power %.1f W implausibly high for this platform", total)
	}
}

func TestIdlePowerBelowBusyPower(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	idle, _ := p.Power(c, make([]SocketLoad, p.Sockets))
	loads := make([]SocketLoad, p.Sockets)
	for s := range loads {
		loads[s] = SocketLoad{BusyCores: 8}
	}
	busy, _ := p.Power(c, loads)
	if idle >= busy {
		t.Errorf("idle power %g not below busy power %g", idle, busy)
	}
}

func TestStallPowerReducesDynamicPower(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	active := p.SocketPower(c, 0, SocketLoad{BusyCores: 8})
	stalled := p.SocketPower(c, 0, SocketLoad{BusyCores: 8, StallFrac: 1})
	if stalled >= active {
		t.Errorf("fully stalled socket %g W should draw less than active %g W", stalled, active)
	}
	if stalled <= p.UncoreActive {
		t.Errorf("stalled socket %g W should still burn dynamic power above uncore %g W", stalled, p.UncoreActive)
	}
}

func TestDutyCycleReducesPower(t *testing.T) {
	p := E52690Server()
	c := MaxConfig(p)
	loads := []SocketLoad{{BusyCores: 8, HTShare: 1}, {BusyCores: 8, HTShare: 1}}
	full, _ := p.Power(c, loads)
	c.Duty[0], c.Duty[1] = 0.5, 0.5
	halved, _ := p.Power(c, loads)
	if halved >= full {
		t.Errorf("duty-cycled power %g not below full power %g", halved, full)
	}
}

func TestMeanGHzWeightsActiveSockets(t *testing.T) {
	p := E52690Server()
	c := Config{Cores: 4, Sockets: 2, MemCtls: 2}.Normalize(p)
	c.Freq[0], c.Freq[1] = 0, p.NumFreqSettings()-1
	want := (p.MinGHz() + p.TurboGHz) / 2
	if got := c.MeanGHz(p); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanGHz = %g, want %g", got, want)
	}
}

// TestMobileSoCDarkSilicon checks the platform of the paper's motivating
// example: peak power roughly double a sustainable cap.
func TestMobileSoCDarkSilicon(t *testing.T) {
	p := MobileSoC()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := MaxConfig(p)
	loads := []SocketLoad{{BusyCores: 4, BWGBs: 4}}
	peak, _ := p.Power(c, loads)
	if peak < 4.5 || peak > 5.5 {
		t.Errorf("mobile SoC peak %.2f W, want ~5 W (Exynos 5 class)", peak)
	}
	const sustainable = 2.8
	if peak < 1.7*sustainable {
		t.Errorf("peak %.2f W should be nearly 2x the sustainable %.1f W (dark silicon)", peak, sustainable)
	}
}

// TestBlendEndpointsAndMonotonicity: Blend models partial actuation — the
// endpoints return clones of the inputs, and intermediate fractions land
// strictly between distinct configurations.
func TestBlendEndpoints(t *testing.T) {
	p := E52690Server()
	cur, want := MinimalConfig(p), MaxConfig(p)

	if got := Blend(cur, want, 0); !got.Equal(cur) {
		t.Errorf("Blend(0) = %v, want cur", got)
	}
	if got := Blend(cur, want, -1); !got.Equal(cur) {
		t.Errorf("Blend(-1) = %v, want cur", got)
	}
	if got := Blend(cur, want, 1); !got.Equal(want) {
		t.Errorf("Blend(1) = %v, want want", got)
	}
	if got := Blend(cur, want, 2); !got.Equal(want) {
		t.Errorf("Blend(2) = %v, want want", got)
	}

	// Endpoint results are clones, not aliases.
	got := Blend(cur, want, 0)
	got.Freq[0] = 99
	if cur.Freq[0] == 99 {
		t.Error("Blend(0) aliased cur's Freq slice")
	}
}

func TestBlendMidpoint(t *testing.T) {
	p := E52690Server()
	cur, want := MinimalConfig(p), MaxConfig(p)
	mid := Blend(cur, want, 0.5)
	if mid.Equal(cur) || mid.Equal(want) {
		t.Fatalf("Blend(0.5) = %v degenerated to an endpoint", mid)
	}
	if mid.Cores <= cur.Cores || mid.Cores >= want.Cores {
		t.Errorf("mid Cores = %d not between %d and %d", mid.Cores, cur.Cores, want.Cores)
	}
	if mid.HT != want.HT {
		t.Errorf("HT at frac 0.5 = %v, want the target's %v", mid.HT, want.HT)
	}
	if low := Blend(cur, want, 0.25); low.HT != cur.HT {
		t.Errorf("HT at frac 0.25 = %v, want cur's %v", low.HT, cur.HT)
	}
	for s := range mid.Freq {
		if mid.Freq[s] < cur.Freq[s] || mid.Freq[s] > want.Freq[s] {
			t.Errorf("mid Freq[%d] = %d outside [%d, %d]", s, mid.Freq[s], cur.Freq[s], want.Freq[s])
		}
	}
	for s := range mid.Duty {
		lo, hi := cur.Duty[s], want.Duty[s]
		if lo > hi {
			lo, hi = hi, lo
		}
		if mid.Duty[s] < lo || mid.Duty[s] > hi {
			t.Errorf("mid Duty[%d] = %g outside [%g, %g]", s, mid.Duty[s], lo, hi)
		}
	}
}

// TestBlendRoundsTowardCur: integer fields truncate toward the current
// configuration, modeling the not-yet-migrated remainder.
func TestBlendRoundsTowardCur(t *testing.T) {
	p := E52690Server()
	cur := MinimalConfig(p) // 1 core
	want := cur.Clone()
	want.Cores = 2
	if got := Blend(cur, want, 0.49); got.Cores != 1 {
		t.Errorf("Blend(0.49) Cores = %d, want 1 (rounds toward cur)", got.Cores)
	}
}
