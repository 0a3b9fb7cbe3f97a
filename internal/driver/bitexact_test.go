package driver

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/faults"
	"pupil/internal/machine"
	"pupil/internal/sim"
)

// skipUnlessPinnedFloats skips a bit-exact test on a host whose
// floating-point results may differ from the ones its digests were
// generated on: math.Exp (and so math.Pow) takes an FMA code path on amd64
// CPUs that have FMA, and other architectures may fuse x*y+z.
func skipUnlessPinnedFloats(t *testing.T) {
	t.Helper()
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on linux/amd64 with FMA, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		t.Skip("digests are pinned with FMA enabled; GODEBUG turns it off")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil || !bytes.Contains(info, []byte(" fma ")) {
		t.Skip("digests are pinned on a CPU with FMA; this one lacks it")
	}
}

// bitExactRows are the sessions TestSessionBitExact pins: each platform the
// experiment grids leave partly unexercised (a thermal server without
// leakage, one with leakage, a single-socket SoC) under hardware, software
// and hybrid capping, one with a watchdog and one with the thermal
// governor.
var bitExactRows = []struct {
	name    string
	plat    func() *machine.Platform
	tech    string
	apps    []string
	threads int
	capW    float64
	dog     bool
	gov     bool
	want    string
}{
	{"server/RAPL", machine.E52690Server, "RAPL", []string{"kmeans"}, 32, 110, false, false,
		"16f5435d288a50c64d75fcb4e1e7213dcef3f5dc4e37cec41e71b857b19b7496"},
	{"server/Soft-DVFS", machine.E52690Server, "Soft-DVFS", []string{"blackscholes"}, 32, 140, false, false,
		"04cb218e398db8e4c850a128d120741cc61fc7dfc0abd6bb36262c047c1769c4"},
	{"server/PUPiL", machine.E52690Server, "PUPiL", []string{"x264", "STREAM"}, 16, 120, true, false,
		"9b506147f12978571c1866c6996b9c25b960cc08d7b4be990135b3bd5a57fbbc"},
	{"thermal/RAPL", machine.E52690ThermalServer, "RAPL", []string{"blackscholes"}, 32, 200, false, true,
		"26d0c79e732f972b9430be6719834c78c765912b7e40d40144380f6776e97c91"},
	{"thermal/PUPiL", machine.E52690ThermalServer, "PUPiL", []string{"jacobi"}, 32, 170, false, false,
		"ce04d8792924466681829826eed2832055b655ec09e9cfa0426a602ed66f8b8f"},
	{"soc/RAPL", machine.MobileSoC, "RAPL", []string{"swaptions"}, 4, 3, false, false,
		"ebeffa695ce2b87281d84fd39955a0a513472c49eebe90ee8daafc6f1738d37e"},
	{"soc/Soft-DVFS", machine.MobileSoC, "Soft-DVFS", []string{"x264"}, 4, 2.5, false, false,
		"bc7f706a592d13294cded01e5e0505f9ff8025f51fce653915d5d1f4ce23a544"},
}

// bitExactFaults are injected at runtime before the advance of the same
// index, onsets relative to the session's clock: latency and stuck faults
// on every sensor target, some overlapping.
var bitExactFaults = map[int][]faults.Scenario{
	1: {{Kind: faults.KindLatency, Target: faults.TargetPowerSensor, Duration: 1500 * time.Millisecond, Magnitude: 0.2}},
	3: {{Kind: faults.KindStuck, Target: faults.TargetPerfSensor, Onset: 100 * time.Millisecond, Duration: time.Second}},
	5: {{Kind: faults.KindLatency, Target: faults.TargetPerfSensor, Duration: 2 * time.Second, Magnitude: 0.35}},
	6: {{Kind: faults.KindStuck, Target: faults.TargetPowerSensor, Onset: 50 * time.Millisecond, Duration: 700 * time.Millisecond}},
	7: {{Kind: faults.KindLatency, Target: faults.TargetRAPLPower, Duration: time.Second, Magnitude: 0.05}},
	9: {{Kind: faults.KindStuck, Target: faults.TargetRAPLPower, Onset: 200 * time.Millisecond, Duration: time.Second}},
	11: {
		{Kind: faults.KindLatency, Target: faults.TargetPowerSensor, Duration: 3 * time.Second, Magnitude: 0.5},
		{Kind: faults.KindStuck, Target: faults.TargetPowerSensor, Onset: time.Second, Duration: 500 * time.Millisecond},
		{Kind: faults.KindLatency, Target: faults.TargetPerfSensor, Onset: 300 * time.Millisecond, Duration: 2 * time.Second, Magnitude: 0.1},
	},
}

// TestSessionBitExact pins, bit for bit, what the experiment grids do not
// reach: a retained session advanced in uneven steps (1 ms, 7 ms, 333 ms,
// 2.5 s) with latency and stuck faults injected at runtime, on three
// platforms. After every advance it hashes the session's Result at full
// precision — every trace sample, both event logs, the fault events, the
// energy, the final eval and every other field — plus the per-application
// rate traces. A change to the simulation kernel that alters any low bit
// fails here.
func TestSessionBitExact(t *testing.T) {
	skipUnlessPinnedFloats(t)
	for _, row := range bitExactRows {
		t.Run(row.name, func(t *testing.T) {
			p := row.plat()
			ctrl, err := control.New(row.tech, p)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSession(Scenario{Platform: p, Specs: specs(t, row.threads, row.apps...), CapWatts: row.capW,
				Controller: ctrl, Seed: 33, Watchdog: row.dog, ThermalGovernor: row.gov})
			if err != nil {
				t.Fatal(err)
			}
			s.Retain(time.Second)
			h := sha256.New()
			steps := []time.Duration{time.Millisecond, 7 * time.Millisecond, 333 * time.Millisecond, 2500 * time.Millisecond}
			for i := 0; i < 16; i++ {
				for _, f := range bitExactFaults[i] {
					if err := s.InjectFault(f); err != nil {
						t.Fatal(err)
					}
				}
				s.Advance(steps[i%len(steps)])
				hashSession(h, s)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != row.want {
				t.Errorf("digest %s, want %s", got, row.want)
			}
		})
	}
}

// hashSession writes the session's Result and rate traces to h at full
// precision: %v prints a float64 so that it reads back exactly.
func hashSession(h hash.Hash, s *Session) {
	r := s.Result()
	for _, tr := range []**sim.Series{&r.PowerTrace, &r.PerfTrace, &r.TruePower, &r.SpinTrace, &r.BWTrace} {
		fmt.Fprintf(h, "%s %v\n", (*tr).Name, (*tr).Samples)
		*tr = nil // the pointer itself is an address, not a result
	}
	for _, tr := range s.w.rateTrace {
		fmt.Fprintf(h, "%s %v\n", tr.Name, tr.Samples)
	}
	fmt.Fprintf(h, "%v\n", r)
}
