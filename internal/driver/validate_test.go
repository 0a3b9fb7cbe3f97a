package driver

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

func capScenario(capW float64) Scenario {
	prof, err := workload.ByName("blackscholes")
	if err != nil {
		panic(err)
	}
	return Scenario{
		Platform:   machine.E52690Server(),
		Specs:      []workload.Spec{{Profile: prof, Threads: 32}},
		CapWatts:   capW,
		Controller: control.NewRAPLOnly(),
		Duration:   time.Second,
	}
}

// Nonsense caps — non-positive, NaN, infinite — must be rejected with the
// typed ErrInvalidCap at every entry point, not flow into the RAPL model.
func TestInvalidCapRejected(t *testing.T) {
	bad := map[string]float64{
		"zero":     0,
		"negative": -40,
		"nan":      math.NaN(),
		"+inf":     math.Inf(1),
		"-inf":     math.Inf(-1),
	}
	for name, w := range bad {
		t.Run(name, func(t *testing.T) {
			if err := ValidateCap(w); !errors.Is(err, ErrInvalidCap) {
				t.Errorf("ValidateCap(%g) = %v, want ErrInvalidCap", w, err)
			}
			if _, err := Run(capScenario(w)); !errors.Is(err, ErrInvalidCap) {
				t.Errorf("Run with cap %g: err = %v, want ErrInvalidCap", w, err)
			}
			if _, err := NewSession(capScenario(w)); !errors.Is(err, ErrInvalidCap) {
				t.Errorf("NewSession with cap %g: err = %v, want ErrInvalidCap", w, err)
			}
			s, err := NewSession(capScenario(100))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetCap(w); !errors.Is(err, ErrInvalidCap) {
				t.Errorf("SetCap(%g) = %v, want ErrInvalidCap", w, err)
			}
			if got := s.Cap(); got != 100 {
				t.Errorf("cap changed to %g by rejected SetCap", got)
			}
		})
	}
	if err := ValidateCap(140); err != nil {
		t.Errorf("ValidateCap(140) = %v, want nil", err)
	}
}

// Snapshot reflects the live session and is detached from its internals.
func TestSessionSnapshot(t *testing.T) {
	s, err := NewSession(capScenario(120))
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(2 * time.Second)
	sn := s.Snapshot()
	if sn.Now != 2*time.Second {
		t.Errorf("Snapshot.Now = %v, want 2s", sn.Now)
	}
	if sn.CapWatts != 120 {
		t.Errorf("Snapshot.CapWatts = %g, want 120", sn.CapWatts)
	}
	if sn.PowerWatts <= 0 {
		t.Errorf("Snapshot.PowerWatts = %g, want > 0", sn.PowerWatts)
	}
	if sn.TotalRate() <= 0 {
		t.Errorf("Snapshot.TotalRate = %g, want > 0", sn.TotalRate())
	}
	if len(sn.Apps) != 1 || sn.Apps[0] != "blackscholes" {
		t.Errorf("Snapshot.Apps = %v, want [blackscholes]", sn.Apps)
	}
	if sn.EnergyJ <= 0 {
		t.Errorf("Snapshot.EnergyJ = %g, want > 0", sn.EnergyJ)
	}
	// The returned slices are copies; mutating them must not corrupt the
	// session.
	if len(sn.Rates) > 0 {
		sn.Rates[0] = -1
	}
	if s.Rates()[0] == -1 {
		t.Error("Snapshot.Rates aliases session state")
	}
	if err := s.SetCap(90); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().CapWatts; got != 90 {
		t.Errorf("after SetCap(90), Snapshot.CapWatts = %g", got)
	}
}

// TestSessionSnapshotZones checks the RAPL-style zone breakdown of a live
// session: each socket reports its package zone, carrying the firmware's
// programmed cap, then core and dram subzones, and the package zones sum
// to at most the node's total power.
func TestSessionSnapshotZones(t *testing.T) {
	plat := machine.E52690Server()
	s, err := NewSession(Scenario{
		Platform:   plat,
		Specs:      specs(t, 32, "jacobi"),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(5 * time.Second)
	sn := s.Snapshot()
	if len(sn.Zones) != 3*plat.Sockets {
		t.Fatalf("Snapshot.Zones has %d entries, want 3 per socket: %+v", len(sn.Zones), sn.Zones)
	}
	var pkgSum float64
	for sock := 0; sock < plat.Sockets; sock++ {
		pkg, core, dram := sn.Zones[3*sock], sn.Zones[3*sock+1], sn.Zones[3*sock+2]
		name := "package_" + strconv.Itoa(sock)
		if pkg.Zone != name || core.Zone != name+"_core" || dram.Zone != name+"_dram" {
			t.Errorf("socket %d zones = %q, %q, %q", sock, pkg.Zone, core.Zone, dram.Zone)
		}
		if want := s.w.firmwares[sock].Cap(); pkg.CapWatts <= 0 || pkg.CapWatts != want {
			t.Errorf("%s cap = %g W, want the firmware's %g W", name, pkg.CapWatts, want)
		}
		pkgSum += pkg.PowerWatts
	}
	if pkgSum <= 0 || pkgSum > sn.PowerWatts*1.01 {
		t.Errorf("package zones sum to %.2f W against node total %.2f W", pkgSum, sn.PowerWatts)
	}
}
