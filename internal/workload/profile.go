// Package workload defines the synthetic benchmark models used in place of
// the paper's 20 real applications (PARSEC, Minebench, Rodinia, jacobi,
// swish++, dijkstra, STREAM).
//
// Each workload is a Profile: a small parameter vector describing how the
// application responds to the machine's tunable resources — scalability
// (Universal Scalability Law serialization and coherence terms), an extra
// coherence penalty when threads span sockets, hyperthread yield, memory
// intensity and bandwidth demand, and synchronization style. The power
// capping controllers never read these parameters; they only observe the
// performance/power feedback the profiles induce, exactly as the paper's
// controllers only observed the real applications from outside.
package workload

import (
	"fmt"
	"math"
	"time"
)

// SyncKind describes an application's synchronization style, which matters
// under oversubscription: polling (spin-based) synchronization holds cores
// while making no forward progress, the pathology behind Table 6 of the
// paper; blocking synchronization yields the CPU.
type SyncKind int

const (
	// SyncNone marks embarrassingly parallel applications.
	SyncNone SyncKind = iota
	// SyncBlocking marks applications using condition variables or
	// similar yielding primitives.
	SyncBlocking
	// SyncPolling marks applications using spin-based synchronization
	// (e.g. test-and-set loops) around serial phases.
	SyncPolling
)

// String returns the lower-case name of the synchronization kind.
func (k SyncKind) String() string {
	switch k {
	case SyncNone:
		return "none"
	case SyncBlocking:
		return "blocking"
	case SyncPolling:
		return "polling"
	default:
		return fmt.Sprintf("SyncKind(%d)", int(k))
	}
}

// Profile is the parametric model of one benchmark application.
//
// The performance unit is application-specific (frames, iterations,
// queries); BaseRate fixes it so that one core at the platform's base
// (highest non-turbo) frequency completes 1 unit/s, and all reported
// performance is relative to that.
type Profile struct {
	Name  string
	Suite string // originating suite, for documentation

	// BaseRate is the work rate (units/s) of a single core at the
	// platform base frequency with no memory limits.
	BaseRate float64

	// Sigma and Kappa are the Universal Scalability Law serialization
	// (contention) and coherence coefficients governing within-socket
	// scaling: speedup(n) = n / (1 + Sigma*(n-1) + Kappa*n*(n-1)).
	Sigma float64
	Kappa float64
	// CrossKappa is added to Kappa when the thread set spans more than
	// one socket, modeling inter-socket coherence/communication cost
	// (severe for kmeans, mild for streaming codes).
	CrossKappa float64

	// HTYield is the extra effective capacity a second hardware thread
	// adds to a busy core, in [-0.2, 1]: 0.3 means a hyperthreaded core
	// behaves like 1.3 cores; negative values model applications that
	// lose performance with hyperthreading (x264 on the paper's box).
	HTYield float64

	// MemIntensity in [0, 1] is the fraction of work bound by the memory
	// system; it weights the harmonic blend between the compute rate and
	// the memory-limited rate, and sets the stall fraction seen by the
	// power model.
	MemIntensity float64
	// GBPerUnit is the bandwidth demand in GB per work unit, so demand
	// GB/s = rate * GBPerUnit.
	GBPerUnit float64

	// Sync and SerialFrac describe synchronization: SerialFrac is the
	// fraction of execution spent in serial/critical phases. For
	// SyncPolling profiles the remaining threads spin during these
	// phases.
	Sync       SyncKind
	SerialFrac float64

	// IPC is instructions per cycle per busy core, used only for the
	// GIPS characterization (Fig. 5) and spin-cycle accounting.
	IPC float64

	// PhaseAmp and PhasePeriod add a slow sinusoidal variation to the
	// intrinsic rate (scene changes in x264, iteration phases in
	// solvers), exercising the controllers' noise filtering.
	PhaseAmp    float64
	PhasePeriod time.Duration
}

// Validate reports whether the profile's parameters are in range.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile with empty name")
	case p.BaseRate <= 0:
		return fmt.Errorf("workload: %s: BaseRate %g must be positive", p.Name, p.BaseRate)
	case p.Sigma < 0 || p.Kappa < 0 || p.CrossKappa < 0:
		return fmt.Errorf("workload: %s: negative USL coefficient", p.Name)
	case p.HTYield < -0.2 || p.HTYield > 1:
		return fmt.Errorf("workload: %s: HTYield %g outside [-0.2, 1]", p.Name, p.HTYield)
	case p.MemIntensity < 0 || p.MemIntensity > 1:
		return fmt.Errorf("workload: %s: MemIntensity %g outside [0, 1]", p.Name, p.MemIntensity)
	case p.GBPerUnit < 0:
		return fmt.Errorf("workload: %s: negative GBPerUnit", p.Name)
	case p.SerialFrac < 0 || p.SerialFrac >= 1:
		return fmt.Errorf("workload: %s: SerialFrac %g outside [0, 1)", p.Name, p.SerialFrac)
	case p.IPC <= 0:
		return fmt.Errorf("workload: %s: IPC %g must be positive", p.Name, p.IPC)
	case p.PhaseAmp < 0 || p.PhaseAmp >= 1:
		return fmt.Errorf("workload: %s: PhaseAmp %g outside [0, 1)", p.Name, p.PhaseAmp)
	case p.PhaseAmp > 0 && p.PhasePeriod <= 0:
		return fmt.Errorf("workload: %s: PhaseAmp without PhasePeriod", p.Name)
	}
	return nil
}

// Speedup returns the USL speedup of n effective workers over one, with the
// cross-socket coherence term applied when the thread set spans sockets.
// n may be fractional (hyperthread yield produces fractional capacity).
func (p Profile) Speedup(n float64, spanning bool) float64 {
	if n <= 1 {
		return math.Max(n, 0)
	}
	k := p.Kappa
	if spanning {
		k += p.CrossKappa
	}
	return n / (1 + p.Sigma*(n-1) + k*n*(n-1))
}

// PhaseFactor returns the multiplicative intrinsic-rate modulation at
// simulated time now, centered on 1.
func (p *Profile) PhaseFactor(now time.Duration) float64 {
	if p.PhaseAmp == 0 || p.PhasePeriod <= 0 {
		return 1
	}
	return 1 + p.PhaseAmp*math.Sin(2*math.Pi*now.Seconds()/p.PhasePeriod.Seconds())
}
