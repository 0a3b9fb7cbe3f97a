package control

import (
	"pupil/internal/machine"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// Objective scores an evaluation; OptimalSearch maximizes it.
type Objective func(system.Eval) float64

// TotalRate is the single-application objective: aggregate work rate.
func TotalRate(ev system.Eval) float64 { return ev.TotalRate() }

// OptimalSearch is the paper's Optimal point of comparison: run the
// workload in every user-accessible configuration, discard those whose
// steady-state power exceeds the cap, and return the best performer. It is
// an oracle — it reads the ground truth directly and costs nothing — so it
// upper-bounds every online technique.
//
// ok is false when no configuration respects the cap (a cap below the
// machine's floor).
func OptimalSearch(p *machine.Platform, apps []*workload.Instance, capWatts float64, obj Objective) (best machine.Config, bestEval system.Eval, ok bool) {
	if obj == nil {
		obj = TotalRate
	}
	bestScore := -1.0
	// One evaluator across the sweep: every configuration is a cache miss,
	// but the result and scratch buffers are reused for all of them — which
	// is why the winning eval must be cloned before the next iteration
	// overwrites it.
	evaluator := system.NewEvaluator(p, apps)
	machine.Enumerate(p, func(cfg machine.Config) bool {
		ev := evaluator.Eval(cfg, 0)
		if ev.PowerTotal > capWatts {
			return true
		}
		if score := obj(ev); score > bestScore {
			bestScore = score
			best = cfg.Clone()
			bestEval = ev.Clone()
			ok = true
		}
		return true
	})
	return best, bestEval, ok
}
