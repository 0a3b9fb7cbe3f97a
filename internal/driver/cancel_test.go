package driver

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
)

// cancelAt wraps a controller and cancels a context from the first decision
// at or after simulated time at, so a test cancels at a known simulated
// instant instead of after a wall-clock delay.
type cancelAt struct {
	core.Controller
	at     time.Duration
	cancel context.CancelFunc
	// cancelled records when the cancellation was raised.
	cancelled time.Duration
}

func (c *cancelAt) Step(env core.Env) {
	c.Controller.Step(env)
	if c.cancelled == 0 && env.Now() >= c.at {
		c.cancelled = env.Now()
		c.cancel()
	}
}

// TestRunContextCancellation verifies the context threads all the way into
// the simulation loop: an hour-long scenario cancelled by its controller at
// 3 s of simulated time stops at exactly 3 s, between kernel ticks, and
// returns context.Canceled instead of simulating the full hour.
func TestRunContextCancellation(t *testing.T) {
	p := machine.E52690Server()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl := &cancelAt{Controller: core.NewPUPiL(core.DefaultOrdered(p)), at: 3 * time.Second, cancel: cancel}

	_, err := RunContext(ctx, Scenario{
		Platform:   p,
		Specs:      specs(t, 32, "x264"),
		CapWatts:   140,
		Controller: ctrl,
		Duration:   time.Hour, // far longer than any test should simulate
		Seed:       1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if ctrl.cancelled != ctrl.at {
		t.Fatalf("cancelled at t=%v, want the decision at t=%v", ctrl.cancelled, ctrl.at)
	}
	// The run reports where it stopped: on the cancelling tick, before the
	// kernel advanced past it.
	if want := fmt.Sprintf("aborted at t=%v:", ctrl.at); !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want it to report %q", err, want)
	}
}

// TestRunContextPreCancelled checks an already-dead context aborts before
// any simulated time passes.
func TestRunContextPreCancelled(t *testing.T) {
	p := machine.E52690Server()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, Scenario{
		Platform:   p,
		Specs:      specs(t, 32, "jacobi"),
		CapWatts:   140,
		Controller: control.NewRAPLOnly(),
		Duration:   time.Minute,
		Seed:       1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestSessionAdvanceContextCancellation verifies interactive sessions stop
// mid-advance, at exactly the simulated instant the cancellation was raised,
// and remain usable afterwards.
func TestSessionAdvanceContextCancellation(t *testing.T) {
	p := machine.E52690Server()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctrl := &cancelAt{Controller: control.NewRAPLOnly(), at: 3 * time.Second, cancel: cancel}
	s, err := NewSession(Scenario{
		Platform:   p,
		Specs:      specs(t, 32, "x264"),
		CapWatts:   140,
		Controller: ctrl,
		Duration:   time.Hour,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceContext(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("AdvanceContext error = %v, want context.Canceled", err)
	}
	at := s.Now()
	if at != ctrl.at || ctrl.cancelled != ctrl.at {
		t.Fatalf("cancelled at t=%v, advance stopped at t=%v, want both at t=%v", ctrl.cancelled, at, ctrl.at)
	}
	// The session must stay usable after a cancelled advance.
	s.Advance(time.Second)
	if got := s.Now(); got != at+time.Second {
		t.Errorf("session did not advance after cancellation: t=%v then %v, want %v", at, got, at+time.Second)
	}
}
