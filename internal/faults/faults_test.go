package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pupil/internal/machine"
	"pupil/internal/sim"
	"pupil/internal/telemetry"
)

func TestScenarioValidate(t *testing.T) {
	valid := []Scenario{
		{Kind: KindDropout, Target: TargetPowerSensor, Onset: 0, Duration: time.Second, Magnitude: 0.5},
		{Kind: KindStuck, Target: TargetPerfSensor, Onset: time.Second, Duration: time.Minute},
		{Kind: KindSpike, Target: TargetRAPLPower, Duration: time.Second, Magnitude: 2},
		{Kind: KindLatency, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 0.2},
		{Kind: KindIgnore, Target: TargetConfig, Duration: time.Second},
		{Kind: KindPartial, Target: TargetConfig, Duration: time.Second, Magnitude: 0.3},
		{Kind: KindDelay, Target: TargetConfig, Duration: time.Second, Magnitude: 1.5},
		{Kind: KindMisprogram, Target: TargetRAPLCap, Duration: time.Second, Magnitude: 1.4},
		{Kind: KindMisprogram, Target: TargetRAPLWindow, Duration: time.Second, Magnitude: 10},
		{Kind: KindStall, Target: TargetController, Duration: time.Second},
		{Kind: KindCrash, Target: TargetNode, Duration: time.Second},
		{Kind: KindHang, Target: TargetNode, Duration: time.Second},
		{Kind: KindFlap, Target: TargetNode, Duration: time.Minute, Magnitude: 2},
		{Kind: KindCorrupt, Target: TargetDemand, Duration: time.Second, Magnitude: 4},
	}
	for _, sc := range valid {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: unexpected error %v", sc, err)
		}
	}

	invalid := []struct {
		name string
		sc   Scenario
	}{
		{"unknown kind", Scenario{Kind: "gremlin", Target: TargetPowerSensor, Duration: time.Second}},
		{"unknown target", Scenario{Kind: KindStuck, Target: "gpu", Duration: time.Second}},
		{"kind/target mismatch", Scenario{Kind: KindStall, Target: TargetPowerSensor, Duration: time.Second}},
		{"ignore cannot hit sensors", Scenario{Kind: KindIgnore, Target: TargetPerfSensor, Duration: time.Second}},
		{"negative onset", Scenario{Kind: KindStall, Target: TargetController, Onset: -time.Second, Duration: time.Second}},
		{"zero duration", Scenario{Kind: KindStall, Target: TargetController}},
		{"negative duration", Scenario{Kind: KindStall, Target: TargetController, Duration: -time.Second}},
		{"dropout probability zero", Scenario{Kind: KindDropout, Target: TargetPowerSensor, Duration: time.Second}},
		{"dropout probability above one", Scenario{Kind: KindDropout, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 1.5}},
		{"partial fraction one", Scenario{Kind: KindPartial, Target: TargetConfig, Duration: time.Second, Magnitude: 1}},
		{"spike without magnitude", Scenario{Kind: KindSpike, Target: TargetPowerSensor, Duration: time.Second}},
		{"negative magnitude", Scenario{Kind: KindSpike, Target: TargetPowerSensor, Duration: time.Second, Magnitude: -1}},
		{"crash cannot hit sensors", Scenario{Kind: KindCrash, Target: TargetPowerSensor, Duration: time.Second}},
		{"flap without period", Scenario{Kind: KindFlap, Target: TargetNode, Duration: time.Second}},
		{"corrupt without factor", Scenario{Kind: KindCorrupt, Target: TargetDemand, Duration: time.Second}},
		{"corrupt cannot hit node", Scenario{Kind: KindCorrupt, Target: TargetNode, Duration: time.Second, Magnitude: 2}},
	}
	for _, tc := range invalid {
		err := tc.sc.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !errors.Is(err, ErrInvalidScenario) {
			t.Errorf("%s: error %v does not wrap ErrInvalidScenario", tc.name, err)
		}
	}
}

func TestProfileValidateReportsFirstFailure(t *testing.T) {
	p := Profile{
		{Kind: KindStall, Target: TargetController, Duration: time.Second},
		{Kind: KindDropout, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 2},
	}
	if err := p.Validate(); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("profile with bad scenario validated: %v", err)
	}
	if err := (Profile{}).Validate(); err != nil {
		t.Errorf("empty profile: %v", err)
	}
}

func TestScenarioActiveAtAndString(t *testing.T) {
	sc := Scenario{Kind: KindStall, Target: TargetController, Onset: 2 * time.Second, Duration: 3 * time.Second}
	for _, tc := range []struct {
		t      time.Duration
		active bool
	}{
		{0, false}, {2 * time.Second, true}, {4 * time.Second, true}, {5 * time.Second, false},
	} {
		if got := sc.ActiveAt(tc.t); got != tc.active {
			t.Errorf("ActiveAt(%v) = %v", tc.t, got)
		}
	}
	if s := sc.String(); !strings.Contains(s, "stall/controller") {
		t.Errorf("String() = %q", s)
	}
}

func TestInjectorAdvanceLogsTransitions(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindStall, Target: TargetController, Onset: time.Second, Duration: 2 * time.Second},
	}, sim.NewRNG(1))

	if ev := inj.Advance(0); len(ev) != 0 {
		t.Errorf("events before onset: %v", ev)
	}
	ev := inj.Advance(time.Second)
	if len(ev) != 1 || !ev[0].Active {
		t.Fatalf("onset events = %v", ev)
	}
	if ev := inj.Advance(2 * time.Second); len(ev) != 0 {
		t.Errorf("duplicate onset events: %v", ev)
	}
	ev = inj.Advance(3 * time.Second)
	if len(ev) != 1 || ev[0].Active {
		t.Fatalf("clearance events = %v", ev)
	}
	if got := inj.Events(); len(got) != 2 {
		t.Errorf("event log has %d entries, want 2", len(got))
	}
	if inj.ActiveCount(1500*time.Millisecond) != 1 || inj.ActiveCount(0) != 0 {
		t.Error("ActiveCount wrong")
	}
}

func TestClusterScopedGating(t *testing.T) {
	crash := Scenario{Kind: KindCrash, Target: TargetNode, Duration: time.Second}
	stall := Scenario{Kind: KindStall, Target: TargetController, Duration: time.Second}
	if !crash.ClusterScoped() || stall.ClusterScoped() {
		t.Errorf("ClusterScoped: crash=%v stall=%v, want true/false", crash.ClusterScoped(), stall.ClusterScoped())
	}
	if !(Scenario{Kind: KindCorrupt, Target: TargetDemand, Duration: time.Second, Magnitude: 2}).ClusterScoped() {
		t.Error("demand-report corruption not cluster-scoped")
	}
	// Node-level entry points must refuse cluster-scoped scenarios: they
	// mean nothing to a single machine's injector.
	if err := (Profile{stall, crash}).ValidateNodeScoped(); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("ValidateNodeScoped accepted a crash scenario: %v", err)
	}
	if err := (Profile{stall}).ValidateNodeScoped(); err != nil {
		t.Errorf("ValidateNodeScoped rejected a node-scoped profile: %v", err)
	}
	inj := NewInjector(nil, sim.NewRNG(1))
	if err := inj.Schedule(crash); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("node injector scheduled a cluster-scoped scenario: %v", err)
	}
}

func TestInjectorScheduleValidates(t *testing.T) {
	inj := NewInjector(nil, sim.NewRNG(1))
	bad := Scenario{Kind: KindDropout, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 2}
	if err := inj.Schedule(bad); !errors.Is(err, ErrInvalidScenario) {
		t.Errorf("bad scenario scheduled: %v", err)
	}
	good := Scenario{Kind: KindStall, Target: TargetController, Duration: time.Second}
	if err := inj.Schedule(good); err != nil {
		t.Fatal(err)
	}
	if !inj.ControllerStalled(0) {
		t.Error("scheduled stall not in effect")
	}
	if inj.ControllerStalled(2 * time.Second) {
		t.Error("stall outlived its duration")
	}
	if got := inj.Scenarios(); len(got) != 1 {
		t.Errorf("Scenarios() = %v", got)
	}
}

func TestFilterConfig(t *testing.T) {
	plat := machine.E52690Server()
	cur := machine.MinimalConfig(plat)
	want := machine.MaxConfig(plat)

	// Healthy: identity.
	inj := NewInjector(nil, sim.NewRNG(1))
	applied, extra, ok := inj.FilterConfig(0, cur, want)
	if !ok || extra != 0 || !applied.Equal(want) {
		t.Errorf("healthy FilterConfig = (%v, %v, %v)", applied, extra, ok)
	}

	// Ignore: the request silently vanishes.
	inj = NewInjector(Profile{{Kind: KindIgnore, Target: TargetConfig, Duration: time.Second}}, sim.NewRNG(1))
	if _, _, ok := inj.FilterConfig(0, cur, want); ok {
		t.Error("ignored request reported ok")
	}
	if _, _, ok := inj.FilterConfig(2*time.Second, cur, want); !ok {
		t.Error("request after fault clearance still ignored")
	}

	// Partial: the applied configuration is strictly between cur and want.
	inj = NewInjector(Profile{{Kind: KindPartial, Target: TargetConfig, Duration: time.Second, Magnitude: 0.5}}, sim.NewRNG(1))
	applied, _, ok = inj.FilterConfig(0, cur, want)
	if !ok || applied.Equal(cur) || applied.Equal(want) {
		t.Errorf("partial actuation applied %v", applied)
	}

	// Delay: extra latency of Magnitude seconds.
	inj = NewInjector(Profile{{Kind: KindDelay, Target: TargetConfig, Duration: time.Second, Magnitude: 1.5}}, sim.NewRNG(1))
	if _, extra, _ := inj.FilterConfig(0, cur, want); extra != 1500*time.Millisecond {
		t.Errorf("delay extra = %v", extra)
	}
}

func TestFilterRAPLCapAndWindowScale(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindMisprogram, Target: TargetRAPLCap, Duration: time.Second, Magnitude: 1.4},
		{Kind: KindMisprogram, Target: TargetRAPLWindow, Duration: time.Second, Magnitude: 0.1},
	}, sim.NewRNG(1))
	if got := inj.FilterRAPLCap(0, 100); got != 140 {
		t.Errorf("misprogrammed cap = %g", got)
	}
	if got := inj.FilterRAPLCap(0, -1); got != -1 {
		t.Errorf("disable write corrupted: %g", got)
	}
	if got := inj.FilterRAPLCap(2*time.Second, 100); got != 100 {
		t.Errorf("cleared fault still corrupts: %g", got)
	}
	if got := inj.WindowScale(0); got != 0.1 {
		t.Errorf("WindowScale = %g", got)
	}
	if got := inj.WindowScale(2 * time.Second); got != 1 {
		t.Errorf("WindowScale after clearance = %g", got)
	}
}

func TestSensorTapStuck(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindStuck, Target: TargetPowerSensor, Onset: time.Second, Duration: time.Second},
	}, sim.NewRNG(1))
	tap := inj.SensorTap(TargetPowerSensor, nil)

	if v, ok := tap(0, 50); !ok || v != 50 {
		t.Fatalf("healthy reading = (%g, %v)", v, ok)
	}
	if v, ok := tap(time.Second, 80); !ok || v != 50 {
		t.Errorf("stuck reading = (%g, %v), want last good 50", v, ok)
	}
	if v, ok := tap(2500*time.Millisecond, 80); !ok || v != 80 {
		t.Errorf("recovered reading = (%g, %v)", v, ok)
	}
}

func TestSensorTapStuckBeforeFirstReading(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindStuck, Target: TargetPowerSensor, Duration: time.Second},
	}, sim.NewRNG(1))
	tap := inj.SensorTap(TargetPowerSensor, nil)
	if _, ok := tap(0, 50); ok {
		t.Error("sensor stuck from t=0 produced a reading with no prior value")
	}
}

func TestSensorTapDropout(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindDropout, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 1},
	}, sim.NewRNG(1))
	tap := inj.SensorTap(TargetPowerSensor, nil)
	for i := 0; i < 10; i++ {
		if _, ok := tap(time.Duration(i)*10*time.Millisecond, 50); ok {
			t.Fatal("probability-1 dropout delivered a reading")
		}
	}
	if v, ok := tap(2*time.Second, 50); !ok || v != 50 {
		t.Errorf("reading after dropout clearance = (%g, %v)", v, ok)
	}
}

func TestSensorTapSpike(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindSpike, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 1},
	}, sim.NewRNG(1))
	tap := inj.SensorTap(TargetPowerSensor, nil)
	changed := false
	for i := 0; i < 20; i++ {
		v, ok := tap(time.Duration(i)*10*time.Millisecond, 50)
		if !ok {
			t.Fatal("spike dropped a reading")
		}
		if v < 0 {
			t.Fatalf("spiked reading went negative: %g", v)
		}
		if v != 50 {
			changed = true
		}
	}
	if !changed {
		t.Error("spike never perturbed the signal")
	}
}

func TestSensorTapLatency(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindLatency, Target: TargetPowerSensor, Onset: 100 * time.Millisecond, Duration: time.Second, Magnitude: 0.05},
	}, sim.NewRNG(1))
	tap := inj.SensorTap(TargetPowerSensor, nil)

	// Build history: value tracks time in ms.
	for i := 0; i < 10; i++ {
		tm := time.Duration(i) * 10 * time.Millisecond
		if _, ok := tap(tm, float64(i*10)); !ok {
			t.Fatalf("healthy reading at %v dropped", tm)
		}
	}
	// At t=100ms with 50ms latency the tap must serve the t=50ms reading.
	if v, ok := tap(100*time.Millisecond, 100); !ok || v != 50 {
		t.Errorf("delayed reading = (%g, %v), want 50", v, ok)
	}
}

func TestSensorTapDeterministic(t *testing.T) {
	profile := Profile{
		{Kind: KindSpike, Target: TargetPowerSensor, Duration: time.Second, Magnitude: 0.5},
		{Kind: KindDropout, Target: TargetPowerSensor, Onset: 500 * time.Millisecond, Duration: 500 * time.Millisecond, Magnitude: 0.5},
	}
	run := func() []float64 {
		inj := NewInjector(profile, sim.NewRNG(42))
		tap := inj.SensorTap(TargetPowerSensor, nil)
		var out []float64
		for i := 0; i < 100; i++ {
			v, ok := tap(time.Duration(i)*10*time.Millisecond, 50)
			if !ok {
				v = -1
			}
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tap diverged at sample %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestSensorTapBorrowsWindow: a tap that borrows its sensor's window as its
// history behaves exactly as one that keeps its own ring, reading for
// reading, while faults are scheduled at runtime after the window has
// wrapped — a latency fault replays readings from before its injection and
// a stuck fault holds the last good one.
func TestSensorTapBorrowsWindow(t *testing.T) {
	faulted := []Scenario{
		{Kind: KindLatency, Target: TargetPowerSensor, Duration: 2 * time.Second, Magnitude: 0.3},
		{Kind: KindStuck, Target: TargetPowerSensor, Onset: 4 * time.Second, Duration: time.Second},
		{Kind: KindDropout, Target: TargetPowerSensor, Onset: 6 * time.Second, Duration: time.Second, Magnitude: 0.4},
	}
	type twin struct {
		inj *Injector
		sns *telemetry.Sensor
	}
	build := func(borrow bool) twin {
		inj := NewInjector(nil, sim.NewRNG(5))
		src := 0.0
		sns := telemetry.NewSensor("power", func() float64 { src++; return src }, 10*time.Millisecond,
			histCap, telemetry.DefaultPowerNoise(), sim.NewRNG(6))
		var w *telemetry.Window
		if borrow {
			w = sns.Window()
		}
		sns.SetTap(inj.SensorTap(TargetPowerSensor, w))
		return twin{inj, sns}
	}
	a, b := build(true), build(false)
	for i := 1; i <= 2000; i++ {
		now := time.Duration(i) * 10 * time.Millisecond
		if i == 1200 {
			for _, sc := range faulted {
				sc.Onset += now
				for _, tw := range []twin{a, b} {
					if err := tw.inj.Schedule(sc); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		a.sns.Tick(now)
		b.sns.Tick(now)
		ra, _ := a.sns.Window().At(now)
		rb, _ := b.sns.Window().At(now)
		if ra != rb {
			t.Fatalf("tick %d: borrowing tap delivered %+v, owning tap %+v", i, ra, rb)
		}
	}
	got := a.sns.Window().Readings(nil)
	want := b.sns.Window().Readings(nil)
	if len(got) != len(want) {
		t.Fatalf("windows hold %d and %d readings", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reading %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWrapActuatorHoldsLastOnDropout: the firmware's power-estimate register
// keeps its previous contents when an update is lost.
func TestWrapActuatorHoldsLastOnDropout(t *testing.T) {
	inj := NewInjector(Profile{
		{Kind: KindDropout, Target: TargetRAPLPower, Onset: time.Second, Duration: time.Second, Magnitude: 1},
	}, sim.NewRNG(1))
	var now time.Duration
	inj.SetClock(func() time.Duration { return now })

	src := &fakeActuator{power: 60}
	wrapped := inj.WrapActuator(src, 1)

	if p := wrapped.SocketPower(0); p != 60 {
		t.Fatalf("healthy power = %g", p)
	}
	now = time.Second
	src.power = 90
	if p := wrapped.SocketPower(0); p != 60 {
		t.Errorf("dropped update leaked: %g, want held 60", p)
	}
	now = 2500 * time.Millisecond
	if p := wrapped.SocketPower(0); p != 90 {
		t.Errorf("post-fault power = %g", p)
	}

	// Operating-point writes pass through untouched.
	wrapped.SetOperatingPoint(0, 3, 0.5)
	if src.freqIdx != 3 || src.duty != 0.5 {
		t.Errorf("SetOperatingPoint not forwarded: %d, %g", src.freqIdx, src.duty)
	}
}

type fakeActuator struct {
	power   float64
	freqIdx int
	duty    float64
}

func (f *fakeActuator) SocketPower(int) float64 { return f.power }
func (f *fakeActuator) SetOperatingPoint(_ int, freqIdx int, duty float64) {
	f.freqIdx, f.duty = freqIdx, duty
}
