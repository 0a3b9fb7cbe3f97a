package control

import (
	"time"

	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/regress"
	"pupil/internal/sim"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// SoftModeling is the offline-model baseline (Section 4.4): multiple
// regression fitted ahead of time estimates the power and performance of a
// configuration as a function of assigned resources (clock speed, memory
// controllers, sockets, cores per socket, hyperthreads). At run time it
// solves the constrained optimization from predictions alone and applies
// the winner once — "an extreme case of a predictive model that needs no
// feedback information at runtime."
//
// Because the models are generic (trained on a profiling mix, not the
// running application) and never corrected online, prediction error
// translates directly into cap violations — the paper observes ~70% of its
// data points exceeding the 60 W cap — or into lost performance.
type SoftModeling struct {
	power   regress.Model
	perf    regress.Model
	lastCap float64
}

// TrainSoftModeling profiles a training mix of synthetic applications
// across randomly sampled configurations and fits the power and
// performance regressions. The training mix deliberately excludes the
// evaluation benchmarks: the method's defining weakness is exactly that its
// model is not specific to the running application.
func TrainSoftModeling(p *machine.Platform, seed uint64) (*SoftModeling, error) {
	rng := sim.NewRNG(seed)
	profiles := trainingMix(rng)

	var feats [][]float64
	var powers, perfs []float64
	for _, prof := range profiles {
		apps, err := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: 32}})
		if err != nil {
			return nil, err
		}
		// Sample a spread of configurations per profile, through one
		// evaluator: its cached evaluations are bit-identical to one-shot
		// ones and skip rebuilding its buffers per sample.
		eval := system.NewEvaluator(p, apps)
		for i := 0; i < 96; i++ {
			cfg := randomConfig(p, rng)
			ev := eval.Eval(cfg, 0)
			// Profiling measurements carry noise too.
			noise := func() float64 { return 1 + 0.02*rng.NormFloat64() }
			feats = append(feats, features(p, cfg))
			powers = append(powers, ev.PowerTotal*noise())
			perfs = append(perfs, ev.TotalRate()*noise())
		}
	}
	pm, err := regress.Fit(feats, powers, 1e-6)
	if err != nil {
		return nil, err
	}
	fm, err := regress.Fit(feats, perfs, 1e-6)
	if err != nil {
		return nil, err
	}
	return &SoftModeling{power: pm, perf: fm}, nil
}

// trainingMix returns the synthetic profiling applications: scalable
// compute kernels with varying memory appetite, the kind of well-understood
// workloads one profiles a machine with.
func trainingMix(rng *sim.RNG) []workload.Profile {
	var out []workload.Profile
	for i := 0; i < 8; i++ {
		out = append(out, workload.Profile{
			Name:         "train",
			Suite:        "synthetic",
			BaseRate:     1,
			Sigma:        0.01 + 0.05*rng.Float64(),
			Kappa:        1e-5 + 1e-4*rng.Float64(),
			CrossKappa:   1e-5 + 2e-4*rng.Float64(),
			HTYield:      0.1 + 0.4*rng.Float64(),
			MemIntensity: 0.1 + 0.5*rng.Float64(),
			GBPerUnit:    0.3 + 1.5*rng.Float64(),
			Sync:         workload.SyncNone,
			IPC:          1.5,
		})
	}
	return out
}

func randomConfig(p *machine.Platform, rng *sim.RNG) machine.Config {
	cfg := machine.Config{
		Cores:   1 + rng.Intn(p.CoresPerSocket),
		Sockets: 1 + rng.Intn(p.Sockets),
		HT:      p.ThreadsPerCore > 1 && rng.Float64() < 0.5,
		MemCtls: 1 + rng.Intn(p.MemCtls),
	}.Normalize(p)
	f := rng.Intn(p.NumFreqSettings())
	for s := range cfg.Freq {
		cfg.Freq[s] = f
	}
	return cfg
}

// features maps a configuration to the regression's design vector:
// intercept, the five resources, and the interactions that dominate power
// (active cores x speed, and quadratic speed for the V^2*f curvature).
func features(p *machine.Platform, cfg machine.Config) []float64 {
	ghz := cfg.MeanGHz(p)
	cores := float64(cfg.TotalCores())
	ht := 0.0
	if cfg.HT {
		ht = 1
	}
	return []float64{
		1,
		float64(cfg.Cores),
		float64(cfg.Sockets),
		ht,
		float64(cfg.MemCtls),
		ghz,
		cores * ghz,
		cores * ghz * ghz,
		ht * cores,
	}
}

// Clone returns a controller sharing the fitted (immutable) power and
// performance models but with private runtime state, so concurrent runs can
// each drive their own instance without racing on lastCap. Training is the
// expensive part; cloning costs nothing.
func (c *SoftModeling) Clone() *SoftModeling {
	return &SoftModeling{power: c.power, perf: c.perf}
}

// Name implements core.Controller.
func (c *SoftModeling) Name() string { return "Soft-Modeling" }

// Period implements core.Controller; Step never acts (no online feedback).
func (c *SoftModeling) Period() time.Duration { return time.Second }

// Start implements core.Controller: pick the configuration with the best
// predicted performance whose predicted power respects the cap, and apply
// it once. No hardware capper is used and nothing is ever corrected.
func (c *SoftModeling) Start(env core.Env) {
	c.lastCap = env.CapWatts()
	p := env.Platform()
	best, bestPerf := machine.MinimalConfig(p), -1.0
	machine.Enumerate(p, func(cfg machine.Config) bool {
		x := features(p, cfg)
		if c.power.Predict(x) > env.CapWatts() {
			return true
		}
		if perf := c.perf.Predict(x); perf > bestPerf {
			bestPerf = perf
			best = cfg
		}
		return true
	})
	env.SetConfig(best)
}

// Step implements core.Controller: the offline approach never reacts to
// feedback; it only re-solves when the cap itself changes (a new input to
// the offline optimization, not runtime feedback).
func (c *SoftModeling) Step(env core.Env) {
	if env.CapWatts() != c.lastCap {
		c.Start(env)
	}
}
