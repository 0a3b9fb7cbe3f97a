package perf

import "testing"

// Standard go-test entry points over the suite, so
// `go test -bench . ./internal/perf` and the cmd/bench harness measure the
// exact same bodies under the exact same names.

func BenchmarkRunnerTick(b *testing.B)         { RunnerTick(b) }
func BenchmarkRunnerTickSoftware(b *testing.B) { RunnerTickSoftware(b) }
func BenchmarkSessionAdvance(b *testing.B)     { SessionAdvance(b) }
func BenchmarkSweepCell(b *testing.B)          { SweepCell(b) }
func BenchmarkServerTick(b *testing.B)         { ServerTick(b) }
func BenchmarkManagerRegistry(b *testing.B)    { ManagerRegistry(b) }
func BenchmarkClusterEpoch(b *testing.B)       { ClusterEpoch(b) }
func BenchmarkRouterPublish(b *testing.B)      { RouterPublish(b) }

// Fleet-scale cluster variants. ClusterEpoch100 is part of Suite() and the
// regression gate; the 1k/10k variants prove the scale claim on demand
// (they build thousands of node sessions, so the gate does not pay for
// them on every run).
func BenchmarkClusterEpoch100(b *testing.B) { ClusterEpoch100(b) }
func BenchmarkClusterEpoch1k(b *testing.B)  { ClusterEpoch1k(b) }
func BenchmarkClusterEpoch10k(b *testing.B) { ClusterEpoch10k(b) }
