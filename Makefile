GO ?= go

.PHONY: check fmt vet build test test-short race artifacts-check bench bench-baseline bench-scale bench-sweep load load-baseline

# check is the CI gate: formatting, static analysis, build, and the full
# test suite under the race detector.
check: fmt vet build race

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short skips the sweep-heavy tests (quick grids, golden regeneration
# inputs) — the split CI uses to keep the race jobs inside their wall time.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# artifacts-check regenerates the full evaluation (seed 42) into a scratch
# directory and diffs it against the committed artifacts/: every CSV and
# the printed tables (full_output.txt; the timing line goes to stderr) must
# reproduce byte for byte. After a deliberate change to experiment output,
# regenerate with `go run ./cmd/paperrepro -csv artifacts >
# artifacts/full_output.txt` and commit the diff.
artifacts-check:
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/paperrepro -csv "$$d" > "$$d/full_output.txt" && \
	diff -r artifacts "$$d" && echo "artifacts reproduce byte for byte"

# bench runs the hot-path suite (tick, session-advance, sweep-cell,
# server-tick, cluster-epoch flat and at 100 hierarchical nodes) best-of-3
# and gates it against the committed baseline: >10% time/op growth, any
# allocs/op growth past the slack, or B/op growth past 25% + 1 KB fails.
bench:
	$(GO) run ./cmd/bench -baseline BENCH_tick.json

# bench-scale proves the fleet-scale claim outside the gate: one epoch of
# the 1000- and 10000-node hierarchical clusters (the 10k variant must stay
# under 1 s/op — TestClusterEpoch10kRealTime pins the same bound).
bench-scale:
	$(GO) test -bench 'BenchmarkClusterEpoch(1k|10k)$$' -benchtime 5x \
		-run '^$$' ./internal/perf

# bench-baseline re-measures and rewrites the committed baseline. Run on a
# quiet machine and commit the diff together with the change that moved it.
bench-baseline:
	$(GO) run ./cmd/bench -out BENCH_tick.json

# load runs the 30-second quick capacity profile of cmd/pupilload against
# an in-process pupild under the race detector and gates it against the
# committed BENCH_load.json: any endpoint errors, a stream drop rate past
# the budget, goroutine growth past the budget, or p50/p99 latency more
# than 2x the baseline fails. The baseline is race-built, so the latency
# comparison applies in CI; a non-race local run still gets the absolute
# gates (CompareLoad skips relative latency across differing race flags).
load:
	$(GO) run -race ./cmd/pupilload -quick -baseline BENCH_load.json

# load-baseline re-measures the quick profile and rewrites the committed
# load baseline. Run on a quiet machine, under -race to match CI, and
# commit the diff together with the change that moved it.
load-baseline:
	$(GO) run -race ./cmd/pupilload -quick -out BENCH_load.json

# bench-sweep times the quick single-application grid sequentially and on
# four workers, then prints the parallel-over-sequential speedup. On a
# single-core host the ratio is ~1.0 by design (results are identical either
# way; only wall-clock changes).
bench-sweep:
	@$(GO) test -bench 'BenchmarkSweep(Sequential|Parallel)$$' -benchtime 3x \
		-run '^$$' ./internal/experiment | tee /tmp/pupil-bench-sweep.txt
	@awk '/^BenchmarkSweepSequential/ {seq=$$3} /^BenchmarkSweepParallel/ {par=$$3} \
		END {if (seq && par) printf "sweep speedup (sequential/parallel): %.2fx\n", seq/par}' \
		/tmp/pupil-bench-sweep.txt
