package control

import (
	"fmt"

	"pupil/internal/core"
	"pupil/internal/machine"
)

// New builds a fresh controller for the named technique on platform p —
// RAPL, Soft-DVFS, Soft-Modeling (trained on the spot, seed 1, against a
// synthetic profiling mix), Soft-Decision, PUPiL, or PUPiL-EAS. It is the
// one technique table behind the public API, pupild, and the experiments.
func New(technique string, p *machine.Platform) (core.Controller, error) {
	switch technique {
	case "RAPL":
		return NewRAPLOnly(), nil
	case "Soft-DVFS":
		return NewSoftDVFS(), nil
	case "Soft-Modeling":
		return TrainSoftModeling(p, 1)
	case "Soft-Decision":
		return core.NewSoftDecision(core.DefaultOrdered(p)), nil
	case "PUPiL":
		return core.NewPUPiL(core.DefaultOrdered(p)), nil
	case "PUPiL-EAS":
		return core.NewPUPiLEAS(core.DefaultOrdered(p)), nil
	}
	return nil, fmt.Errorf("unknown technique %q", technique)
}
