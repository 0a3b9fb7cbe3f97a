// Package experiment regenerates every table and figure of the paper's
// evaluation (Section 5) on the simulated platform, plus the extension
// grids: per-experiment drivers return typed rows/series plus rendered
// report tables, and Experiments lists them all in print order. Grids
// shared by several outputs (the single-application grid behind Table 3
// and Figures 3, 4, 5 and 7; the multi-application grid behind Tables 5-6
// and Figures 6 and 8) and the extension grids run once per Config behind
// one memo.
package experiment

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/machine"
	"pupil/internal/sweep"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// Technique names, matching the paper's legends.
const (
	TechRAPL         = "RAPL"
	TechSoftDVFS     = "Soft-DVFS"
	TechSoftModeling = "Soft-Modeling"
	TechSoftDecision = "Soft-Decision"
	TechPUPiL        = "PUPiL"
)

// Techniques lists the points of comparison in presentation order.
func Techniques() []string {
	return []string{TechRAPL, TechSoftDVFS, TechSoftModeling, TechSoftDecision, TechPUPiL}
}

// Config selects the sweep's scale.
type Config struct {
	// Seed drives all randomness; equal configs produce equal results.
	Seed uint64
	// Quick trims the grid (3 caps, 8 benchmarks, shorter runs) for
	// tests and exploratory runs. Full reproductions leave it false.
	Quick bool
}

// RunOpts tunes how a sweep executes. Every cell of a grid derives its
// randomness from a stable per-cell seed and results are collected in grid
// order, so RunOpts never affects results — only wall-clock time and
// observability. The zero value runs on GOMAXPROCS workers silently.
type RunOpts struct {
	// Parallel bounds the worker pool; values <= 0 mean GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, observes cell completions.
	Progress sweep.Progress
}

func (o RunOpts) sweep() sweep.Options {
	return sweep.Options{Parallel: o.Parallel, Progress: o.Progress}
}

// Caps returns the evaluated processor power caps in Watts (Section 5.1).
func (c Config) Caps() []float64 {
	if c.Quick {
		return []float64{60, 140, 220}
	}
	return []float64{60, 100, 140, 180, 220}
}

// Apps returns the benchmark names in figure order.
func (c Config) Apps() []string {
	if c.Quick {
		return []string{"blackscholes", "jacobi", "x264", "btree", "dijkstra", "STREAM", "kmeans", "vips"}
	}
	return workload.Names()
}

// Duration returns the simulated run length for a technique: long enough
// for the slowest technique to converge with a steady tail to average.
func (c Config) Duration(tech string) time.Duration {
	full := map[string]time.Duration{
		TechRAPL:         30 * time.Second,
		TechSoftDVFS:     40 * time.Second,
		TechSoftModeling: 20 * time.Second,
		TechSoftDecision: 150 * time.Second,
		TechPUPiL:        60 * time.Second,
	}
	d, ok := full[tech]
	if !ok {
		d = 60 * time.Second
	}
	if c.Quick {
		d /= 2
	}
	return d
}

// Record condenses one capped run to the quantities the figures need.
type Record struct {
	Settling      time.Duration
	Settled       bool
	SteadyRates   []float64
	SteadyPower   float64
	ViolationFrac float64
	Eval          system.Eval
	FinalConfig   machine.Config
}

// SteadyTotal sums the steady per-app rates.
func (r Record) SteadyTotal() float64 {
	t := 0.0
	for _, v := range r.SteadyRates {
		t += v
	}
	return t
}

func condense(res driver.Result) Record {
	return Record{
		Settling:      res.Settling,
		Settled:       res.Settled,
		SteadyRates:   res.SteadyRates,
		SteadyPower:   res.SteadyPower,
		ViolationFrac: res.ViolationFrac,
		Eval:          res.FinalEval,
		FinalConfig:   res.FinalConfig,
	}
}

// harness bundles the per-config shared state: the platform, the trained
// Soft-Modeling instance, and isolated-run rates. A harness is shared by
// every cell of a concurrent grid, so everything it hands out is either
// immutable (the platform, the trained models — cloned per run) or guarded
// (the alone-rate cache).
type harness struct {
	cfg       Config
	plat      *machine.Platform
	softModel *control.SoftModeling
	aloneMu   sync.Mutex
	alone     map[string]float64
}

func newHarness(cfg Config) (*harness, error) {
	plat := machine.E52690Server()
	sm, err := control.TrainSoftModeling(plat, cfg.Seed^0x50f7)
	if err != nil {
		return nil, fmt.Errorf("experiment: training Soft-Modeling: %w", err)
	}
	return &harness{cfg: cfg, plat: plat, softModel: sm, alone: map[string]float64{}}, nil
}

// controller builds a fresh controller instance for one run. Soft-Modeling
// shares its (immutable) trained models across clones; every other
// controller is constructed from scratch, so two concurrent runs never
// share controller state.
func (h *harness) controller(tech string) (core.Controller, error) {
	if tech == TechSoftModeling {
		return h.softModel.Clone(), nil
	}
	ctrl, err := control.New(tech, h.plat)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return ctrl, nil
}

// run executes one capped scenario.
func (h *harness) run(ctx context.Context, tech string, specs []workload.Spec, capW float64, weights []float64, seedSalt uint64) (Record, error) {
	ctrl, err := h.controller(tech)
	if err != nil {
		return Record{}, err
	}
	res, err := driver.RunContext(ctx, driver.Scenario{
		Platform:    h.plat,
		Specs:       specs,
		CapWatts:    capW,
		Controller:  ctrl,
		Duration:    h.cfg.Duration(tech),
		Seed:        h.cfg.Seed ^ seedSalt,
		PerfWeights: weights,
	})
	if err != nil {
		return Record{}, err
	}
	return condense(res), nil
}

// aloneRate returns a benchmark's isolated best rate on the uncapped
// machine (the weighted-speedup normalization of Section 4.3.2). The cache
// is consulted and filled under the mutex, but the oracle search runs
// outside it so concurrent cells computing different benchmarks overlap; a
// duplicated computation for the same key is deterministic, so last-write
// and first-write are identical.
func (h *harness) aloneRate(name string, threads int) (float64, error) {
	key := fmt.Sprintf("%s/%d", name, threads)
	h.aloneMu.Lock()
	if v, ok := h.alone[key]; ok {
		h.aloneMu.Unlock()
		return v, nil
	}
	h.aloneMu.Unlock()

	prof, err := workload.ByName(name)
	if err != nil {
		return 0, err
	}
	apps, err := workload.NewInstances([]workload.Spec{{Profile: prof, Threads: threads}})
	if err != nil {
		return 0, err
	}
	_, ev, ok := control.OptimalSearch(h.plat, apps, 1e9, control.TotalRate)
	if !ok {
		return 0, fmt.Errorf("experiment: no feasible configuration for %s", name)
	}
	h.aloneMu.Lock()
	h.alone[key] = ev.TotalRate()
	h.aloneMu.Unlock()
	return ev.TotalRate(), nil
}

// warmAlone fills the isolated-rate cache for every distinct (benchmark,
// thread count) the mixes run, once each, in first-appearance order with
// threads outermost. Each rate is an oracle search, so they join the
// worker pool; mixInputs then reads them from the cache.
func (h *harness) warmAlone(ctx context.Context, opts RunOpts, what string, mixes []workload.Mix, threads ...int) error {
	type aloneKey struct {
		name    string
		threads int
	}
	var keys []aloneKey
	seen := map[aloneKey]bool{}
	for _, t := range threads {
		for _, mix := range mixes {
			for _, name := range mix.Names {
				if k := (aloneKey{name, t}); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
	}
	_, err := runGrid(ctx, opts, what, keys,
		func(k aloneKey) string { return fmt.Sprintf("alone/%s/%dt", k.name, k.threads) },
		func(_ context.Context, k aloneKey) (float64, error) { return h.aloneRate(k.name, k.threads) })
	return err
}

// mixInputs returns a mix's workload specs at threads each and its
// weighted-speedup weights, each member's isolated rate.
func (h *harness) mixInputs(mix workload.Mix, threads int) ([]workload.Spec, []float64, error) {
	profs, err := mix.Profiles()
	if err != nil {
		return nil, nil, err
	}
	weights := make([]float64, len(profs))
	for i, p := range profs {
		if weights[i], err = h.aloneRate(p.Name, threads); err != nil {
			return nil, nil, err
		}
	}
	return workload.Specs(profs, threads), weights, nil
}

// instances builds a fresh single-benchmark workload. Every grid cell
// constructs its own instances: workload.Instance carries progress state, so
// sharing one across concurrent evaluations would race.
func instances(app string, threads int) ([]workload.Spec, []*workload.Instance, error) {
	prof, err := workload.ByName(app)
	if err != nil {
		return nil, nil, err
	}
	specs := []workload.Spec{{Profile: prof, Threads: threads}}
	apps, err := workload.NewInstances(specs)
	if err != nil {
		return nil, nil, err
	}
	return specs, apps, nil
}

// seedFor derives a stable per-run seed salt from cell labels.
func seedFor(labels ...string) uint64 { return sweep.Seed(labels...) }

// runGrid runs one cell per key, labelled by label, on opts' worker pool
// and returns the results in key order, so callers store each result under
// the key it was run with. A failure reads "experiment: <what>: ...".
func runGrid[K, R any](ctx context.Context, opts RunOpts, what string, keys []K, label func(K) string, run func(context.Context, K) (R, error)) ([]R, error) {
	cells := make([]sweep.Cell[R], len(keys))
	for i, k := range keys {
		cells[i] = sweep.Cell[R]{
			Label: label(k),
			Run:   func(ctx context.Context) (R, error) { return run(ctx, k) },
		}
	}
	results, err := sweep.Run(ctx, cells, opts.sweep())
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", what, err)
	}
	return results, nil
}

// put2 sets m[a][b] = v, creating the inner map as needed.
func put2[A, B comparable, V any](m map[A]map[B]V, a A, b B, v V) {
	if m[a] == nil {
		m[a] = map[B]V{}
	}
	m[a][b] = v
}

// put3 sets m[a][b][c] = v, creating the inner maps as needed.
func put3[A, B, C comparable, V any](m map[A]map[B]map[C]V, a A, b B, c C, v V) {
	if m[a] == nil {
		m[a] = map[B]map[C]V{}
	}
	put2(m[a], b, c, v)
}

// memo shares one grid per Config across every caller. get checks the map
// under the lock and runs a miss outside it, so distinct configs overlap;
// when two callers race on one Config, the first stored instance wins and
// both return it. Errors are never stored: a cancelled run is retried by
// the next caller. Stored grids are shared and must be treated as
// read-only.
type memo[D any] struct {
	run  func(ctx context.Context, cfg Config, opts RunOpts) (*D, error)
	mu   sync.Mutex
	done map[Config]*D
}

func newMemo[D any](run func(context.Context, Config, RunOpts) (*D, error)) *memo[D] {
	return &memo[D]{run: run, done: map[Config]*D{}}
}

// get returns the memoized grid for cfg, running it on opts' pool on a
// miss.
func (m *memo[D]) get(ctx context.Context, cfg Config, opts RunOpts) (*D, error) {
	m.mu.Lock()
	d, ok := m.done[cfg]
	m.mu.Unlock()
	if ok {
		return d, nil
	}
	d, err := m.run(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.done[cfg]; ok {
		return prev, nil
	}
	m.done[cfg] = d
	return d, nil
}

// The memoized grids.
var (
	singleGrid       = newMemo(runSingleAppSweep)
	multiGrid        = newMemo(runMultiAppSweep)
	chaosGrid        = newMemo(runChaosGrid)
	clusterGrid      = newMemo(runClusterGrid)
	hierarchyGrid    = newMemo(runHierarchyGrid)
	chaosClusterGrid = newMemo(runChaosClusterGrid)
	thermalGrid      = newMemo(runThermalGrid)
)

// rendered fetches a memoized grid with default execution options and
// renders it.
func rendered[D, T any](m *memo[D], cfg Config, render func(*D) T) (T, error) {
	d, err := m.get(context.Background(), cfg, RunOpts{})
	if err != nil {
		var zero T
		return zero, err
	}
	return render(d), nil
}
