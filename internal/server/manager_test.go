package server

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"pupil/internal/driver"
)

func fastNode(bench string) NodeConfig {
	return NodeConfig{
		Technique: "RAPL",
		CapWatts:  130,
		FreeRun:   true,
		TickSimMS: 100,
		Workloads: []WorkloadConfig{{Benchmark: bench, Threads: 8}},
	}
}

// Nodes created, capped, streamed, and deleted from many goroutines at
// once must be race-free and leave the registry empty (run under -race).
func TestConcurrentLifecycle(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	benches := []string{"blackscholes", "kmeans", "STREAM", "swaptions", "x264", "vips"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(bench string) {
			defer wg.Done()
			n, err := mgr.Create(fastNode(bench))
			if err != nil {
				t.Errorf("create %s: %v", bench, err)
				return
			}
			sub, err := n.Subscribe(16)
			if err != nil {
				t.Errorf("%s: subscribe: %v", bench, err)
				return
			}
			for i := 0; i < 3; i++ {
				if _, open := <-sub.C(); !open {
					t.Errorf("%s: stream closed early", bench)
					return
				}
			}
			for _, cap := range []float64{110, 90, 120} {
				if err := n.SetCap(cap); err != nil {
					t.Errorf("%s: SetCap(%g): %v", bench, cap, err)
				}
				if _, open := <-sub.C(); !open {
					t.Errorf("%s: stream closed early", bench)
					return
				}
			}
			st := n.Status()
			if st.State != StateRunning || st.CapWatts != 120 {
				t.Errorf("%s: status %+v", bench, st)
			}
			sub.Cancel()
			if err := mgr.Delete(n.ID()); err != nil {
				t.Errorf("delete %s: %v", bench, err)
			}
		}(benches[g])
	}
	wg.Wait()
	if mgr.Len() != 0 {
		t.Errorf("%d nodes left after concurrent teardown", mgr.Len())
	}
	if mgr.Created() != 6 || mgr.Deleted() != 6 {
		t.Errorf("created/deleted = %d/%d, want 6/6", mgr.Created(), mgr.Deleted())
	}
}

// fastCluster is a free-running two-node cluster, the cluster counterpart
// of fastNode.
func fastCluster() ClusterConfig {
	return ClusterConfig{
		BudgetWatts: 260,
		FreeRun:     true,
		EpochSimMS:  100,
		Nodes: []ClusterNodeConfig{
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "kmeans", Threads: 8}}},
			{Technique: "RAPL", Workloads: []WorkloadConfig{{Benchmark: "STREAM", Threads: 8}}},
		},
	}
}

// A subscriber that never reads must not stall the tick loop of a node or
// a cluster: the simulation keeps advancing and the subscriber's drop
// counter grows.
func TestBlockedSubscriberDropsNotStalls(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	n, err := mgr.Create(fastNode("kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mgr.CreateCluster(fastCluster())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("node", func(t *testing.T) {
		blockedSubscriber(t, &n.live, func(s Sample) uint64 { return s.Epoch })
	})
	t.Run("cluster", func(t *testing.T) {
		blockedSubscriber(t, &c.live, func(s ClusterSample) uint64 { return s.Epoch })
	})
}

// blockedSubscriber holds a tiny-buffered subscriber of l unread for 100
// epochs, then checks that it dropped samples and still gets the newest.
func blockedSubscriber[S any](t *testing.T, l *live[S], epochOf func(S) uint64) {
	sub, err := l.Subscribe(2) // tiny buffer, never read
	if err != nil {
		t.Fatal(err)
	}
	start := l.Epoch()
	deadline := time.After(30 * time.Second)
	for l.Epoch() < start+100 {
		select {
		case <-deadline:
			t.Fatalf("tick loop stalled at epoch %d behind a blocked subscriber", l.Epoch())
		case <-time.After(time.Millisecond):
		}
	}
	if sub.Dropped() == 0 {
		t.Error("blocked subscriber dropped nothing over 100 epochs")
	}
	// The newest samples still reach it once it finally reads.
	smp, open := <-sub.C()
	if !open {
		t.Fatal("subscriber closed while running")
	}
	if epoch := epochOf(smp); epoch < start+90 {
		t.Errorf("buffered sample from epoch %d; eviction should keep the newest", epoch)
	}
}

// Close cancels every node and cluster, drains the loops, and closes all
// streams.
func TestManagerCloseGraceful(t *testing.T) {
	mgr := NewManager()
	a, err := mgr.Create(fastNode("STREAM"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create(fastNode("x264"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := mgr.CreateCluster(fastCluster())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := a.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	csub, err := c.Subscribe(4)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	<-a.Done()
	<-b.Done()
	<-c.Done()
	for range sub.C() { // must terminate: fan-out closed on shutdown
	}
	for range csub.C() {
	}
	if st := a.Status().State; st != StateStopped {
		t.Errorf("node state after Close = %q, want stopped", st)
	}
	if st := c.Status().State; st != StateStopped {
		t.Errorf("cluster state after Close = %q, want stopped", st)
	}
	if _, err := mgr.Create(fastNode("kmeans")); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after Close: err = %v, want ErrClosed", err)
	}
	if _, err := mgr.CreateCluster(fastCluster()); !errors.Is(err, ErrClosed) {
		t.Errorf("CreateCluster after Close: err = %v, want ErrClosed", err)
	}
	mgr.Close() // idempotent
}

// Config errors that cannot travel through JSON (NaN, Inf) are still
// caught at the manager boundary with the typed driver error.
func TestManagerValidation(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -3} {
		cfg := fastNode("kmeans")
		cfg.CapWatts = bad
		if _, err := mgr.Create(cfg); !errors.Is(err, driver.ErrInvalidCap) {
			t.Errorf("Create with cap %g: err = %v, want ErrInvalidCap", bad, err)
		}
	}
	n, err := mgr.Create(fastNode("kmeans"))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetCap(math.NaN()); !errors.Is(err, driver.ErrInvalidCap) {
		t.Errorf("SetCap(NaN) = %v, want ErrInvalidCap", err)
	}
	if err := mgr.Delete("n999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Delete unknown: err = %v, want ErrNotFound", err)
	}
	// A mix-built node resolves its four benchmarks.
	cfg := NodeConfig{Technique: "RAPL", CapWatts: 200, FreeRun: true, Mix: "mix1"}
	mn, err := mgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(mn.Status().Workloads); got != 4 {
		t.Errorf("mix node has %d workloads, want 4", got)
	}
}
