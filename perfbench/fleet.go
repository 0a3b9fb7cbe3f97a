package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"pupil/internal/cluster"
	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/machine"
	"pupil/internal/workload"
)

// fleet is a 1000-node three-level cluster under one budget, shaped like
// the fleet-scale cluster the perf suite benchmarks: hardware-only capping
// on four canonical benchmarks, racks of 20, five racks per row, parent
// domains rebalancing every fifth 100-ms epoch. One operation is one epoch
// as pupild runs it: Step, then SnapshotInto for the published status.
const (
	fleetNodes     = 1000
	fleetEpochs    = 200 // fixed: sessions keep append-only traces, so memory grows with epochs
	fleetEpoch     = 100 * time.Millisecond
	fleetWatts     = 100 // budget per node
	fleetSetupReps = 3
	fleetSpans     = 1 << 20
)

var (
	fleetApps    = []string{"blackscholes", "swaptions", "kmeans", "STREAM"}
	fleetThreads = []int{32, 32, 8, 8}
)

// fleetTrace holds what the traced pass's wrappers share: the recorder and
// the open step span, written before each Step starts the pool that reads
// it.
type fleetTrace struct {
	rec  *recorder
	step int32
}

func fleetConfig(seed uint64, tr *fleetTrace) (cluster.Config, error) {
	nodes := make([]cluster.NodeSpec, fleetNodes)
	for i := range nodes {
		prof, err := workload.ByName(fleetApps[i%len(fleetApps)])
		if err != nil {
			return cluster.Config{}, err
		}
		newCtrl := func(*machine.Platform) core.Controller { return control.NewRAPLOnly() }
		if tr != nil {
			newCtrl = func(*machine.Platform) core.Controller {
				return traceController(control.NewRAPLOnly(), tr.rec, 0, &tr.step)
			}
		}
		nodes[i] = cluster.NodeSpec{
			Name:          fmt.Sprintf("node%d", i),
			Platform:      machine.E52690Server(),
			Specs:         []workload.Spec{{Profile: prof, Threads: fleetThreads[i%len(fleetThreads)]}},
			NewController: newCtrl,
		}
	}
	var policy cluster.Policy = cluster.DemandShiftPolicy{}
	if tr != nil {
		policy = &tracedPolicy{inner: policy, rec: tr.rec, parent: &tr.step}
	}
	return cluster.Config{
		Nodes:       nodes,
		BudgetWatts: fleetNodes * fleetWatts,
		Epoch:       fleetEpoch,
		Policy:      policy,
		Seed:        seed,
		Parallel:    workers,
		Topology:    cluster.Topology{NodesPerRack: 20, RacksPerRow: 5, RebalanceEvery: 5},
	}, nil
}

func newFleet(seed uint64, tr *fleetTrace) (*cluster.Coordinator, error) {
	cfg, err := fleetConfig(seed, tr)
	if err != nil {
		return nil, err
	}
	return cluster.NewCoordinator(cfg)
}

// fleetPass is one measured run of the epochs.
type fleetPass struct {
	stepMs, snapMs, epochMs []float64
	phase                   phase
	digest                  string
	heapKBPerNodeSimS       float64
}

// runEpochs steps the coordinator fleetEpochs times. Invariant checks and
// the digest run off the clock; a failed step or check is a failed epoch.
func runEpochs(c *cluster.Coordinator, tr *fleetTrace, res *outcome) fleetPass {
	var p fleetPass
	var sn cluster.Snapshot
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	heap0 := heapInUseMB()
	before := takeSample()
	var offClock time.Duration
	for e := 0; e < fleetEpochs; e++ {
		t0 := time.Now()
		step := rec.begin(kStep, -1, 0, 0)
		if tr != nil {
			tr.step = step
		}
		err := c.Step(fleetEpoch)
		rec.end(step)
		t1 := time.Now()
		snap := rec.begin(kSnapshot, -1, 0, 0)
		c.SnapshotInto(&sn)
		rec.end(snap)
		t2 := time.Now()
		p.stepMs = append(p.stepMs, float64(t1.Sub(t0))/1e6)
		p.snapMs = append(p.snapMs, float64(t2.Sub(t1))/1e6)
		p.epochMs = append(p.epochMs, float64(t2.Sub(t0))/1e6)

		if err == nil {
			err = c.CheckInvariants()
		}
		if err != nil {
			res.fail("epoch %d: %v", e, err)
		}
		put(sn.Budget)
		put(sn.TotalPower)
		put(sn.TotalRate)
		for _, n := range sn.Nodes {
			put(n.CapWatts)
			put(n.MeanPower)
			put(n.MeanRate)
		}
		offClock += time.Since(t2)
	}
	p.phase = between(before, takeSample())
	p.phase.wallS -= offClock.Seconds()
	simS := float64(fleetEpochs) * fleetEpoch.Seconds()
	p.heapKBPerNodeSimS = (heapInUseMB() - heap0) * 1024 / (fleetNodes * simS)
	runtime.KeepAlive(c) // the fleet's traces are what the heap measurement weighs
	p.digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return p
}

// fleetRep builds the fleet fleetSetupReps times, keeps the last, and
// steps it fleetEpochs times.
func fleetRep(o options, rec *recorder, res *outcome, log io.Writer) (*rep, error) {
	var tr *fleetTrace
	if rec != nil {
		tr = &fleetTrace{rec: rec, step: -1}
	}
	var setups []float64
	var c *cluster.Coordinator
	for i := 0; i < fleetSetupReps; i++ {
		c = nil // let the previous fleet go before building the next
		t0 := time.Now()
		var err error
		if c, err = newFleet(o.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res.attempted += fleetEpochs
	p := runEpochs(c, tr, res)
	epochMs, stepMs, snapMs := sorted(p.epochMs), sorted(p.stepMs), sorted(p.snapMs)
	wall := sum(p.epochMs) / 1e3
	fmt.Fprintf(log, "samples epochs=%d tail_quantile=%.3g heap_kb_per_node_sim_s=%.2f\n",
		len(epochMs), tailQuantile(len(epochMs)), p.heapKBPerNodeSimS)
	r := &rep{setups: setups, phase: p.phase, digest: p.digest, e2e: map[string]float64{
		"wall_s":       wall,
		"cpu_s":        p.phase.cpuS,
		"epoch_p50_ms": quantile(epochMs, 0.5),
		"epoch_p90_ms": quantile(epochMs, 0.9),
		"write_p50_ms": quantile(stepMs, 0.5),
		"write_p90_ms": quantile(stepMs, 0.9),
		"read_p50_ms":  quantile(snapMs, 0.5),
		"read_p90_ms":  quantile(snapMs, 0.9),
		"peak_rps":     fleetEpochs / wall,
	}}
	if rec == nil {
		return r, nil
	}
	t := tabulate(rec.recorded())
	m := ledger(t)
	m["runtime.heap_kb_per_node_sim_s"] = p.heapKBPerNodeSimS
	r.table, r.ledger = t, m
	return r, nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
