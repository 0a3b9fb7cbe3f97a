package workload

import (
	"fmt"
	"time"
)

// Spec describes one application launch: which benchmark and with how many
// threads. In the paper's cooperative multi-application scenario every
// application launches with 8 threads; in the oblivious scenario every
// application requests all 32.
type Spec struct {
	Profile Profile
	Threads int
	// Shift, when non-nil, changes the application's behaviour mid-run
	// (a new input, a new processing phase): at Shift.At the instance
	// starts behaving as Shift.Profile. This is the durable workload
	// change the decision framework's monitoring phase must detect and
	// re-walk for.
	Shift *ProfileShift
}

// ProfileShift is a scheduled behaviour change.
type ProfileShift struct {
	At      time.Duration
	Profile Profile
}

// Specs is a convenience constructor building launch specs for a list of
// profiles with a uniform thread count.
func Specs(profiles []Profile, threads int) []Spec {
	out := make([]Spec, len(profiles))
	for i, p := range profiles {
		out[i] = Spec{Profile: p, Threads: threads}
	}
	return out
}

// Instance is a running application: a Spec plus accumulated progress and
// energy accounting. The system evaluator computes its instantaneous rate;
// the simulation world integrates it here.
type Instance struct {
	Spec
	ID int

	// AffinityCores, when positive, pins the application to at most that
	// many physical cores (a cpuset/taskset-style mask). Zero means
	// unrestricted. Pinned applications are packed onto as few sockets
	// as possible by the scheduler.
	AffinityCores int

	// Progress is accumulated work in application units.
	Progress float64
	// LastRate is the most recent instantaneous rate, units/s.
	LastRate float64
}

// NewInstances builds running instances from launch specs, assigning
// sequential IDs. It returns an error for invalid specs rather than
// panicking, since specs often come from user-facing commands.
func NewInstances(specs []Spec) ([]*Instance, error) {
	out := make([]*Instance, len(specs))
	for i, s := range specs {
		if err := s.Profile.Validate(); err != nil {
			return nil, err
		}
		if s.Shift != nil {
			if err := s.Shift.Profile.Validate(); err != nil {
				return nil, err
			}
			if s.Shift.At <= 0 {
				return nil, fmt.Errorf("workload: instance %d (%s) shift at non-positive time %v",
					i, s.Profile.Name, s.Shift.At)
			}
		}
		if s.Threads <= 0 {
			return nil, fmt.Errorf("workload: instance %d (%s) has %d threads", i, s.Profile.Name, s.Threads)
		}
		out[i] = &Instance{Spec: s, ID: i}
	}
	return out, nil
}

// Advance integrates rate over dtS seconds into the instance's progress.
func (in *Instance) Advance(rate, dtS float64) {
	in.LastRate = rate
	in.Progress += rate * dtS
}

// MaybeShift applies the instance's scheduled behaviour change once its
// time arrives, and reports whether it fired.
func (in *Instance) MaybeShift(now time.Duration) bool {
	if in.Shift == nil || now < in.Shift.At {
		return false
	}
	in.Profile = in.Shift.Profile
	in.Shift = nil
	return true
}

// TotalThreads sums the thread counts of a set of instances.
func TotalThreads(apps []*Instance) int {
	t := 0
	for _, a := range apps {
		t += a.Threads
	}
	return t
}
