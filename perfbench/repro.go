package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/experiment"
	"pupil/internal/machine"
	"pupil/internal/sweep"
	"pupil/internal/system"
	"pupil/internal/workload"
)

// repro is the paper's full single-application grid, built exactly as
// experiment.SingleAppSweepOpts builds it, but with each technique cell
// driven through the session API so the benchmark can time its phases.

const (
	reproThreads   = 32 // the paper's single-application thread count
	reproSetupReps = 7
	reproSpans     = 1 << 19
)

// A cell's tech is an index into techniques, or one of these.
const (
	cellUncapped = -2
	cellOptimal  = -1
)

var techniques = experiment.Techniques()

type reproCell struct {
	app  string
	capW float64
	tech int
}

type reproOut struct {
	err error
	// rate is the steady total rate of a technique cell, the Optimal rate
	// of an oracle cell and the uncapped GIPS of a characterisation.
	rate, power, violation, energy float64
	settling                       time.Duration
	settled                        bool
	// Host nanoseconds: the whole cell, its session build and advance
	// (the write side), and Result (the read side).
	cellNs, writeNs, readNs int64
}

type reproGrid struct {
	cfg    experiment.Config
	plat   *machine.Platform
	model  *control.SoftModeling
	trainS float64 // how long training took
	cells  []reproCell
}

// newReproGrid is the workload's set-up: train Soft-Modeling and lay out
// the grid in experiment order.
func newReproGrid(seed uint64) (*reproGrid, error) {
	g := &reproGrid{cfg: experiment.Config{Seed: seed}, plat: machine.E52690Server()}
	t0 := time.Now()
	sm, err := control.TrainSoftModeling(g.plat, seed^0x50f7)
	if err != nil {
		return nil, fmt.Errorf("training Soft-Modeling: %w", err)
	}
	g.model, g.trainS = sm, time.Since(t0).Seconds()
	for _, app := range g.cfg.Apps() {
		g.cells = append(g.cells, reproCell{app: app, tech: cellUncapped})
		for _, capW := range g.cfg.Caps() {
			g.cells = append(g.cells, reproCell{app: app, capW: capW, tech: cellOptimal})
			for t := range techniques {
				g.cells = append(g.cells, reproCell{app: app, capW: capW, tech: t})
			}
		}
	}
	return g, nil
}

func (g *reproGrid) controller(tech int) core.Controller {
	switch techniques[tech] {
	case experiment.TechRAPL:
		return control.NewRAPLOnly()
	case experiment.TechSoftDVFS:
		return control.NewSoftDVFS()
	case experiment.TechSoftModeling:
		return g.model.Clone()
	case experiment.TechSoftDecision:
		return core.NewSoftDecision(core.DefaultOrdered(g.plat))
	default:
		return core.NewPUPiL(core.DefaultOrdered(g.plat))
	}
}

// pass runs the whole grid once on the sweep pool. rec is nil for an
// untraced pass.
func (g *reproGrid) pass(rec *recorder) ([]reproOut, phase, error) {
	cells := make([]sweep.Cell[reproOut], len(g.cells))
	for i, c := range g.cells {
		cells[i] = sweep.Cell[reproOut]{Run: func(ctx context.Context) (reproOut, error) {
			// A failing cell is a failed operation, not a reason to
			// abandon the grid: report it in the output.
			return g.runCell(ctx, rec, c), nil
		}}
	}
	before := takeSample()
	out, err := sweep.Run(context.Background(), cells, sweep.Options{Parallel: workers})
	return out, between(before, takeSample()), err
}

func (g *reproGrid) runCell(ctx context.Context, rec *recorder, c reproCell) (out reproOut) {
	t0 := time.Now()
	span := rec.begin(kCell, -1, 0, 0)
	defer func() {
		rec.end(span)
		out.cellNs = int64(time.Since(t0))
	}()
	prof, err := workload.ByName(c.app)
	if err != nil {
		return reproOut{err: err}
	}
	specs := []workload.Spec{{Profile: prof, Threads: reproThreads}}
	apps, err := workload.NewInstances(specs)
	if err != nil {
		return reproOut{err: err}
	}
	switch c.tech {
	case cellUncapped:
		ev := system.Evaluate(g.plat, machine.MaxConfig(g.plat), apps, 0)
		return reproOut{rate: ev.GIPS, power: ev.PowerTotal}
	case cellOptimal:
		id := rec.begin(kOptimal, span, 0, 0)
		_, ev, ok := control.OptimalSearch(g.plat, apps, c.capW, control.TotalRate)
		rec.end(id)
		if !ok {
			return reproOut{err: fmt.Errorf("no feasible config for %s at %.0f W", c.app, c.capW)}
		}
		return reproOut{rate: ev.TotalRate(), power: ev.PowerTotal}
	}

	tech := techniques[c.tech]
	d := g.cfg.Duration(tech)
	advance := int32(-1)
	ctrl := g.controller(c.tech)
	if rec != nil {
		ctrl = traceController(ctrl, rec, int16(c.tech), &advance)
	}
	tw := time.Now()
	id := rec.begin(kBuild, span, int16(c.tech), 0)
	s, err := driver.NewSession(driver.Scenario{
		Platform:   g.plat,
		Specs:      specs,
		CapWatts:   c.capW,
		Controller: ctrl,
		Seed:       g.cfg.Seed ^ sweep.Seed(tech, c.app, fmt.Sprintf("%.0f", c.capW)),
	})
	if err != nil {
		rec.end(id)
		return reproOut{err: err}
	}
	s.GrowTraces(d)
	rec.end(id)
	advance = rec.begin(kAdvance, span, int16(c.tech), 0)
	err = s.AdvanceContext(ctx, d)
	rec.end(advance)
	tr := time.Now()
	if err != nil {
		return reproOut{err: err}
	}
	id = rec.begin(kResult, span, int16(c.tech), 0)
	res := s.Result()
	rec.end(id)
	return reproOut{
		rate:      res.SteadyTotal(),
		power:     res.SteadyPower,
		violation: res.ViolationFrac,
		energy:    res.EnergyJ,
		settling:  res.Settling,
		settled:   res.Settled,
		writeNs:   int64(tr.Sub(tw)),
		readNs:    int64(time.Since(tr)),
	}
}

// digest hashes every cell's simulated statistics in grid order.
func reproDigest(out []reproOut) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, o := range out {
		put(o.rate)
		put(o.power)
		put(o.violation)
		put(o.energy)
		put(float64(o.settling))
		if o.settled {
			put(1)
		} else {
			put(0)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// reproRep sets the grid up reproSetupReps times, keeps the last, and runs
// it once.
func reproRep(o options, rec *recorder, res *outcome, log io.Writer) (*rep, error) {
	var g *reproGrid
	var setups, trains []float64
	for i := 0; i < reproSetupReps; i++ {
		t0 := time.Now()
		var err error
		if g, err = newReproGrid(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		trains = append(trains, g.trainS)
	}

	out, ph, err := g.pass(rec)
	if err != nil {
		return nil, err
	}
	res.attempted += len(out)
	failed := res.failed
	bad := g.check(out, res)
	if o.seed == defaultSeed {
		n, err := g.checkArtifacts(out, bad, res)
		if err != nil {
			return nil, fmt.Errorf("comparing with the committed reproduction: %w", err)
		}
		fmt.Fprintf(log, "artifacts compared=%d failed_cells=%d\n", n, res.failed-failed)
	}

	var cellMs, writeMs, readMs []float64
	for i, c := range out {
		cellMs = append(cellMs, float64(c.cellNs)/1e6)
		if g.cells[i].tech >= 0 {
			writeMs = append(writeMs, float64(c.writeNs)/1e6)
			readMs = append(readMs, float64(c.readNs)/1e6)
		}
	}
	cellMs, writeMs, readMs = sorted(cellMs), sorted(writeMs), sorted(readMs)
	r := &rep{setups: setups, phase: ph, digest: reproDigest(out), e2e: map[string]float64{
		"wall_s":       ph.wallS,
		"cpu_s":        ph.cpuS,
		"epoch_p50_ms": quantile(cellMs, 0.5),
		"epoch_p90_ms": quantile(cellMs, 0.9),
		"write_p50_ms": quantile(writeMs, 0.5),
		"write_p90_ms": quantile(writeMs, 0.9),
		"read_p50_ms":  quantile(readMs, 0.5),
		"read_p90_ms":  quantile(readMs, 0.9),
		"peak_rps":     float64(len(out)) / ph.wallS,
	}}
	if rec == nil {
		return r, nil
	}

	t := tabulate(rec.recorded())
	m := ledger(t)
	m["sweep.busy_frac"] = float64(t.byKind[kCell].total) / 1e9 / (ph.wallS * workers)
	for i, tech := range techniques {
		simS := float64(t.byTag[kAdvance][i].n) * g.cfg.Duration(tech).Seconds()
		if simS > 0 {
			m["driver.advance_us_per_sim_s."+tech] = float64(t.byTag[kAdvance][i].total) / 1e3 / simS
		}
	}
	m["control.train_ms"] = median(trains) * 1e3
	r.table, r.ledger = t, m
	return r, nil
}

// check requires every cell to have run and produced finite, positive
// rates; it returns which cells failed.
func (g *reproGrid) check(out []reproOut, res *outcome) []bool {
	bad := make([]bool, len(out))
	for i, o := range out {
		c := g.cells[i]
		switch {
		case o.err != nil:
			res.fail("%s/%s/%.0fW: %v", cellName(c), c.app, c.capW, o.err)
		case !(o.rate > 0) || math.IsInf(o.rate, 0) || math.IsNaN(o.power) || math.IsInf(o.power, 0):
			res.fail("%s/%s/%.0fW: rate %g power %g", cellName(c), c.app, c.capW, o.rate, o.power)
		default:
			continue
		}
		bad[i] = true
	}
	return bad
}

func cellName(c reproCell) string {
	switch c.tech {
	case cellUncapped:
		return "uncapped"
	case cellOptimal:
		return "Optimal"
	}
	return techniques[c.tech]
}
