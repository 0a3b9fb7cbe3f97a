package perf

import (
	"context"
	"testing"
	"time"

	"pupil/internal/control"
	"pupil/internal/core"
	"pupil/internal/driver"
	"pupil/internal/machine"
	"pupil/internal/pipeline"
	"pupil/internal/server"
	"pupil/internal/sweep"
	"pupil/internal/workload"
)

// Benchmark is one suite entry: a canonical name (matching the go-test
// wrapper in bench_test.go) and its body.
type Benchmark struct {
	Name string
	Fn   func(*testing.B)
}

// Suite returns the hot-path benchmarks the regression gate tracks, in
// artifact order.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "BenchmarkRunnerTick", Fn: RunnerTick},
		{Name: "BenchmarkRunnerTickSoftware", Fn: RunnerTickSoftware},
		{Name: "BenchmarkSessionAdvance", Fn: SessionAdvance},
		{Name: "BenchmarkSweepCell", Fn: SweepCell},
		{Name: "BenchmarkServerTick", Fn: ServerTick},
		{Name: "BenchmarkManagerRegistry", Fn: ManagerRegistry},
		{Name: "BenchmarkClusterEpoch", Fn: ClusterEpoch},
		{Name: "BenchmarkClusterEpoch100", Fn: ClusterEpoch100},
		{Name: "BenchmarkRouterPublish", Fn: RouterPublish},
	}
}

// tickScenario is the canonical hot-path workload: the hybrid controller
// (the most demanding decision loop) capping x264 on the dual-socket Xeon
// — the same machine and benchmark as the paper's Fig. 1.
func tickScenario() driver.Scenario {
	p := machine.E52690Server()
	prof, err := workload.ByName("x264")
	if err != nil {
		panic(err)
	}
	return driver.Scenario{
		Platform:   p,
		Specs:      []workload.Spec{{Profile: prof, Threads: 32}},
		CapWatts:   140,
		Controller: core.NewPUPiL(core.DefaultOrdered(p)),
		Seed:       42,
	}
}

// RunnerTick measures the steady-state simulation tick path: one op
// advances a live session by 100 ms of simulated time (100 kernel ticks,
// 10 sensor samples, 20 firmware sub-intervals, one controller decision).
// This is the loop every experiment, chaos run, and pupild node funnels
// through; its allocs/op is the number the hot-path overhaul drives down.
// The session retains one op's window, as a pupild node retains its tick,
// so its traces stop growing once warm and bytes/op does not depend on
// b.N.
func RunnerTick(b *testing.B) { runnerTick(b, tickScenario()) }

// RunnerTickSoftware is RunnerTick for a software-only technique on an
// application without workload phases: Soft-DVFS capping blackscholes at
// 140 W. With no phase and no firmware rewriting the operating point, most
// periodic model refreshes have no input that moved, so this is the tick
// path the refresh rule shortens most.
func RunnerTickSoftware(b *testing.B) {
	prof, err := workload.ByName("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	runnerTick(b, driver.Scenario{
		Platform:   machine.E52690Server(),
		Specs:      []workload.Spec{{Profile: prof, Threads: 32}},
		CapWatts:   140,
		Controller: control.NewSoftDVFS(),
		Seed:       42,
	})
}

// runnerTick is the body of the tick benchmarks: past the startup
// transient, one op advances a retained session of sc by 100 ms.
func runnerTick(b *testing.B, sc driver.Scenario) {
	sess, err := driver.NewSession(sc)
	if err != nil {
		b.Fatal(err)
	}
	sess.Retain(100 * time.Millisecond)
	// Run past the startup transient so ops measure steady state.
	sess.Advance(2 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Advance(100 * time.Millisecond)
	}
	b.ReportMetric(sess.Power(), "watts")
}

// SessionAdvance measures the full session lifecycle: one op builds a
// session (world assembly, telemetry wiring, firmware) and advances it one
// simulated second.
func SessionAdvance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess, err := driver.NewSession(tickScenario())
		if err != nil {
			b.Fatal(err)
		}
		sess.Advance(time.Second)
	}
}

// SweepCell measures the experiment engine's unit of work: one op runs a
// four-cell sweep (single worker, so timing is deterministic), each cell a
// one-second hardware-capped run with its own stable seed.
func SweepCell(b *testing.B) {
	prof, err := workload.ByName("blackscholes")
	if err != nil {
		b.Fatal(err)
	}
	caps := []float64{100, 120, 140, 160}
	cells := make([]sweep.Cell[float64], len(caps))
	for i, capW := range caps {
		capW := capW
		cells[i] = sweep.Cell[float64]{
			Label: "bench-cell",
			Run: func(ctx context.Context) (float64, error) {
				res, err := driver.RunContext(ctx, driver.Scenario{
					Platform:   machine.E52690Server(),
					Specs:      []workload.Spec{{Profile: prof, Threads: 32}},
					CapWatts:   capW,
					Controller: control.NewRAPLOnly(),
					Duration:   time.Second,
					Seed:       sweep.Seed("bench", "cell"),
				})
				if err != nil {
					return 0, err
				}
				return res.SteadyPower, nil
			},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), cells, sweep.Options{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ServerTick measures one pupild session-manager tick: advancing a node by
// its simulated tick increment, snapshotting it, and publishing the sample
// to the fan-out.
func ServerTick(b *testing.B) {
	n, err := server.NewDetachedNode(server.NodeConfig{
		Technique: "RAPL",
		CapWatts:  130,
		Workloads: []server.WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.StepOnce() {
			b.Fatal("node stopped during benchmark")
		}
	}
}

// ManagerRegistry measures the pupild control-plane read path under
// registry churn: one op is a Get + Status on a live manager holding 64
// idle nodes, with a full List every 16 ops and a Create/Delete pair every
// 256 ops, all racing across GOMAXPROCS goroutines. This is the lookup
// path every API request and every /metrics scrape funnels through; the op
// cost is dominated by how much work Status does under how wide a lock,
// which is exactly what the registry-contention fix narrows.
func ManagerRegistry(b *testing.B) {
	churnCfg := server.NodeConfig{
		Technique: "RAPL",
		CapWatts:  130,
		// Idle pacing: the tick loop parks on a ten-minute ticker, so ops
		// measure registry and status costs, not simulation work.
		TickRealMS: 600000,
		Workloads:  []server.WorkloadConfig{{Benchmark: "blackscholes", Threads: 8}},
	}
	mgr := server.NewManager()
	defer mgr.Close()
	const fleet = 64
	ids := make([]string, fleet)
	for i := range ids {
		n, err := mgr.Create(churnCfg)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = n.ID()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			switch {
			case i%256 == 0:
				n, err := mgr.Create(churnCfg)
				if err != nil {
					b.Error(err)
					return
				}
				if err := mgr.Delete(n.ID()); err != nil {
					b.Error(err)
					return
				}
			case i%16 == 0:
				for _, n := range mgr.Nodes() {
					_ = n.Epoch()
				}
			default:
				n, ok := mgr.Get(ids[i%fleet])
				if !ok {
					b.Error("fleet node missing from registry")
					return
				}
				_ = n.Status()
			}
		}
	})
}

// ClusterEpoch measures one cluster-coordinator epoch through the serving
// layer: advancing four mixed-workload node sessions by one simulated second
// on the bounded worker pool, rebalancing the budget, applying the new caps,
// and snapshotting/publishing the epoch sample.
func ClusterEpoch(b *testing.B) {
	benchNode := func(name string, threads int) server.ClusterNodeConfig {
		return server.ClusterNodeConfig{
			Technique: "RAPL",
			Workloads: []server.WorkloadConfig{{Benchmark: name, Threads: threads}},
		}
	}
	c, err := server.NewDetachedCluster(server.ClusterConfig{
		BudgetWatts: 400,
		Policy:      "demand-shift",
		Seed:        42,
		Parallel:    2,
		Nodes: []server.ClusterNodeConfig{
			benchNode("blackscholes", 32),
			benchNode("swaptions", 32),
			benchNode("kmeans", 8),
			benchNode("STREAM", 8),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Step past the startup transient so ops measure the steady rebalance
	// loop, not first-epoch warm-up.
	for i := 0; i < 2; i++ {
		if !c.StepOnce() {
			b.Fatal("cluster stopped during warm-up")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.StepOnce() {
			b.Fatal("cluster stopped during benchmark")
		}
	}
}

// scaleCluster builds an n-node hierarchical cluster for the fleet-scale
// epoch benchmarks: nodes cycle through the four canonical benchmarks under
// hardware-only capping, grouped by topo into rack (and row) budget
// domains. Epochs advance 100 ms of simulated time — the ControlPULP-style
// split where node sessions and leaf rebalances run on a fast inner loop
// while parent domains reapportion on a slower cadence (every 5 epochs).
func scaleCluster(n int, topo *server.ClusterTopologyConfig) (*server.Cluster, error) {
	names := []string{"blackscholes", "swaptions", "kmeans", "STREAM"}
	threads := []int{32, 32, 8, 8}
	nodes := make([]server.ClusterNodeConfig, n)
	for i := range nodes {
		nodes[i] = server.ClusterNodeConfig{
			Technique: "RAPL",
			Workloads: []server.WorkloadConfig{{Benchmark: names[i%4], Threads: threads[i%4]}},
		}
	}
	return server.NewDetachedCluster(server.ClusterConfig{
		BudgetWatts: float64(n) * 100,
		Policy:      "demand-shift",
		Seed:        42,
		Parallel:    2,
		EpochSimMS:  100,
		Nodes:       nodes,
		Topology:    topo,
	})
}

// clusterEpochScale is the shared body of the fleet-scale variants: one op
// steps an n-node hierarchical cluster one coordinator epoch. Node sessions
// and the coordinator's own cap and domain traces keep a trailing window
// that the warm-up fills, so allocs/op does not depend on b.N.
func clusterEpochScale(b *testing.B, n int, topo *server.ClusterTopologyConfig) {
	c, err := scaleCluster(n, topo)
	if err != nil {
		b.Fatal(err)
	}
	// Warm through several parent-rebalance cadences so first-occurrence
	// lazy growth (parent scratch, trace capacity, worker-pool scheduler
	// state) is outside the timer — short-benchtime runs would otherwise
	// read one alloc/op higher than long ones from the amortized remainder.
	for i := 0; i < 40; i++ {
		if !c.StepOnce() {
			b.Fatal("cluster stopped during warm-up")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.StepOnce() {
			b.Fatal("cluster stopped during benchmark")
		}
	}
}

// ClusterEpoch100 measures a 100-node two-level cluster epoch (ten racks of
// ten under one datacenter budget) — the fleet-scale entry the regression
// gate tracks.
func ClusterEpoch100(b *testing.B) {
	clusterEpochScale(b, 100, &server.ClusterTopologyConfig{NodesPerRack: 10, RebalanceEvery: 5})
}

// ClusterEpoch1k measures a 1000-node three-level cluster epoch: 50 racks
// of 20 nodes, grouped 5 racks per row.
func ClusterEpoch1k(b *testing.B) {
	clusterEpochScale(b, 1000, &server.ClusterTopologyConfig{NodesPerRack: 20, RacksPerRow: 5, RebalanceEvery: 5})
}

// topo10k is the 10000-node arrangement the benchmark and the real-time
// acceptance test share: 200 racks of 50 nodes, 10 racks per row.
var topo10k = server.ClusterTopologyConfig{NodesPerRack: 50, RacksPerRow: 10, RebalanceEvery: 5}

// ClusterEpoch10k measures a 10000-node three-level cluster epoch — the
// scale target: one epoch must stay under a second of wall clock, so a
// fleet of ten thousand simulated nodes steps in real time under a single
// global budget.
func ClusterEpoch10k(b *testing.B) {
	clusterEpochScale(b, 10000, &topo10k)
}

// RouterPublish measures the telemetry pipeline's intake: one op pushes a
// node-tick-shaped sample through the router to an in-memory ring sink.
// The op must sustain well over 100k samples/s with zero drops — a drop
// here means the backpressure path would be lossy for an ordinary
// single-node publisher, so the benchmark fails rather than reporting a
// misleading ns/op.
func RouterPublish(b *testing.B) {
	r := pipeline.NewRouter()
	if err := r.AddSink("ring", pipeline.NewRing(4096)); err != nil {
		b.Fatal(err)
	}
	smp := pipeline.Sample{Family: "pupil_power_watts", Node: "bench", Zone: "package_0", SimS: 1, Value: 96.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.SimS += 0.25
		r.Publish(smp)
	}
	b.StopTimer()
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	if dropped := r.Dropped(); dropped > 0 {
		b.Fatalf("router dropped %d of %d samples", dropped, b.N)
	}
}
