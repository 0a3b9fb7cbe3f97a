package driver

import (
	"reflect"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/machine"
)

// TestReadingLeavesSimulationUnchanged: reading a session does not change
// what it simulates. Twin sessions of a phased application under
// hardware-only capping advance 7 ms at a time, so most reads land right
// after a firmware tick has moved the operating point and find the eval
// stale; one twin is read with Power, Rates and Snapshot after every
// advance, the other never. Both must end with the same energy, traces and
// Result, field for field.
func TestReadingLeavesSimulationUnchanged(t *testing.T) {
	twin := func() *Session {
		s, err := NewSession(Scenario{Platform: machine.E52690Server(), Specs: specs(t, 32, "x264"),
			CapWatts: 110, Controller: control.NewRAPLOnly(), Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	read, quiet := twin(), twin()
	stale := 0
	for quiet.Now() < 14*time.Second {
		read.Advance(7 * time.Millisecond)
		quiet.Advance(7 * time.Millisecond)
		if read.w.evalStale {
			stale++
		}
		_ = read.Power()
		_ = read.Rates()
		_ = read.Snapshot()
	}
	if stale == 0 {
		t.Fatal("no read found the eval stale; the test exercises nothing")
	}
	if a, b := read.Result().EnergyJ, quiet.Result().EnergyJ; a != b {
		t.Errorf("EnergyJ: read session %v, unread twin %v", a, b)
	}
	if a, b := read.Result(), quiet.Result(); !reflect.DeepEqual(a, b) {
		t.Errorf("Result of the read session differs from its unread twin's")
	}
}
