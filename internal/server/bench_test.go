package server

import "testing"

func benchNode(b *testing.B, subscribers int) *Node {
	b.Helper()
	n, err := NewDetachedNode(NodeConfig{
		Technique: "RAPL",
		CapWatts:  130,
		Workloads: []WorkloadConfig{{Benchmark: "blackscholes", Threads: 32}},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < subscribers; i++ {
		if _, err := n.Subscribe(8); err != nil { // unread: exercises the drop path, as a stalled client would
			b.Fatal(err)
		}
	}
	return n
}

// BenchmarkServerTick measures one session-manager tick: advancing the
// simulated node by DefaultTickSim and publishing the sample.
func BenchmarkServerTick(b *testing.B) {
	n := benchNode(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.tick() {
			b.Fatal("node stopped during benchmark")
		}
	}
	b.ReportMetric(float64(n.Epoch()), "epochs")
}

// BenchmarkServerTickFanout is the same tick with stalled subscribers
// attached — the worst case the bounded ring buffers are there for.
func BenchmarkServerTickFanout(b *testing.B) {
	n := benchNode(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !n.tick() {
			b.Fatal("node stopped during benchmark")
		}
	}
}
