# Benchmark-regression tooling. The gated set — the scheduler hot paths
# (arbiter, delivery) and the stats counters in the root package and
# internal/sim, plus representatives of the vm, diff and tmk layers —
# is compared by the CI bench leg against BENCH_sim.json, the committed
# baseline (see README "Performance").
#
# The numbers are machine-relative: regenerate the baseline (and commit
# it) after a deliberate perf change, or when the CI runner class
# changes enough that the 30% gate trips without a code cause.

BENCH_PKGS    := . ./internal/sim
BENCH_PATTERN := ^(BenchmarkArbiter|BenchmarkDelivery|BenchmarkSend|BenchmarkStatsCount)
BENCH_FLAGS   := -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime=100x -count=6

# The serial-vs-parallel full-table sweep (internal/runner) runs in a
# separate invocation: one iteration is the whole five-table CI-size
# sweep, so -benchtime=100x would take hours. Its two legs land in the
# same raw file and BENCH_sim.json records both — their ratio is the
# `scenario run -j` wall-clock claim.
BENCH_SWEEP_FLAGS := -run '^$$' -bench '^BenchmarkTableSweep' -benchtime=1x -count=3

# The DESIGN.md §1 layers under the run-times: the vm accessor fast path,
# the diff encoder on a sparse and a dense page, tmk's per-episode
# set-up (New + SealInit at 16 procs x 8 MB), lock hand-off and demand
# fault + fetch (the inputs of the perf probes tmk.lock_handoff_us and
# tmk.fault_fetch_us), and core's Validate recomputing and revalidating
# a 4096-entry indirect descriptor (the input of the core.validate_*
# probes). Their costs are six orders of magnitude apart (3 ns, 3 ms),
# so no iteration count suits all: they run in their own invocation on
# a time budget.
BENCH_LAYER_PKGS    := ./internal/vm ./internal/diff ./internal/tmk ./internal/core
BENCH_LAYER_PATTERN := ^Benchmark(ReadF64|WriteF64|EncodeSparse|EncodeDense|NewSealInit|LockHandoff|FaultFetch|ValidateRecompute|ValidateRevalidate)$$
BENCH_LAYER_FLAGS   := -run '^$$' -bench '$(BENCH_LAYER_PATTERN)' -benchtime=200ms -count=6

# The in-process benchmark names, as a benchgate -filter: the bench
# legs gate only these against BENCH_sim.json, and the service leg
# gates only BenchmarkSimdLoad — each leg filters the shared baseline
# to what it actually ran.
GATE_FILTER  := ^Benchmark(Arbiter|Delivery|Send|StatsCount|TableSweep|ReadF64|WriteF64|EncodeSparse|EncodeDense|NewSealInit|LockHandoff|FaultFetch|ValidateRecompute|ValidateRevalidate)
LOAD_FILTER  := ^BenchmarkSimdLoad

# The service load test (cmd/simd + cmd/simload); see README "Running
# as a service". SIMD_ADDR must be free.
SIMD_ADDR     := 127.0.0.1:7077
SIMLOAD_FLAGS := -addr http://$(SIMD_ADDR) -corpus scenarios/service -workers 8 -requests 200 -miss 0.25

.PHONY: test race cover bench-baseline bench-check profile serve loadtest loadtest-baseline

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# Coverage scoreboard: statement coverage of every internal/ package,
# counted across the whole module's tests (a block is covered if any
# test reaches it), then the functions no test reaches at all. The
# profile lands in /tmp/cover.out. Advisory: nothing gates on the
# numbers. The go test output stays in the log so a failing test under
# coverage shows why the scoreboard is missing.
cover:
	go test -coverpkg=./internal/... -coverprofile=/tmp/cover.out ./...
	@awk 'NR > 1 { split($$1, loc, ":"); n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1; file[$$1] = loc[1] } \
		END { for (b in n) { p = file[b]; sub(/\/[^\/]*$$/, "", p); tot[p] += n[b]; if (hit[b]) cov[p] += n[b] } \
		for (p in tot) printf "%6.1f%%  %s\n", 100 * cov[p] / tot[p], p }' /tmp/cover.out | sort -k2
	@echo "functions at 0% coverage:"
	@go tool cover -func=/tmp/cover.out | awk '$$NF == "0.0%" { print "  " $$1, $$2 }'

# Profile a representative traced scenario run end to end: CPU and
# allocation profiles land in /tmp for `go tool pprof`. The flags are
# cmd/scenario's own (-cpuprofile/-memprofile precede the subcommand),
# so any invocation can be profiled the same way.
profile:
	go run ./cmd/scenario -cpuprofile /tmp/scenario.cpu.pprof -memprofile /tmp/scenario.mem.pprof \
		run -trace /tmp/traces ./scenarios/trace.yaml > /dev/null
	@echo "profiles: /tmp/scenario.cpu.pprof /tmp/scenario.mem.pprof (go tool pprof <file>)"

# Refresh the committed baseline on this machine. Separate commands,
# not a pipe: a benchmark that panics mid-run must fail the target
# instead of handing benchgate partial output.
bench-baseline:
	go test $(BENCH_FLAGS) $(BENCH_PKGS) > /tmp/bench-raw.txt
	go test $(BENCH_SWEEP_FLAGS) ./internal/runner >> /tmp/bench-raw.txt
	go test $(BENCH_LAYER_FLAGS) $(BENCH_LAYER_PKGS) >> /tmp/bench-raw.txt
	go run ./cmd/benchgate -filter '$(GATE_FILTER)' -merge BENCH_sim.json -out BENCH_sim.json < /tmp/bench-raw.txt

# Run the same gate CI runs: fail if anything regressed >30%.
bench-check:
	go test $(BENCH_FLAGS) $(BENCH_PKGS) > /tmp/bench-raw.txt
	go test $(BENCH_SWEEP_FLAGS) ./internal/runner >> /tmp/bench-raw.txt
	go test $(BENCH_LAYER_FLAGS) $(BENCH_LAYER_PKGS) >> /tmp/bench-raw.txt
	go run ./cmd/benchgate -filter '$(GATE_FILTER)' -baseline BENCH_sim.json < /tmp/bench-raw.txt

# Run the simd service in the foreground with a disk cache tier.
serve:
	go run ./cmd/simd -addr $(SIMD_ADDR) -cache-dir /tmp/simd-cache

# Load-test a running `make serve` and gate its throughput against the
# committed BenchmarkSimdLoad baseline, the same check the CI service
# job runs.
loadtest:
	go run ./cmd/simload $(SIMLOAD_FLAGS) > /tmp/simload-raw.txt
	go run ./cmd/benchgate -filter '$(LOAD_FILTER)' -baseline BENCH_sim.json < /tmp/simload-raw.txt

# Refresh the committed BenchmarkSimdLoad baseline from a running
# `make serve`, keeping the in-process benchmark entries intact.
loadtest-baseline:
	go run ./cmd/simload $(SIMLOAD_FLAGS) > /tmp/simload-raw.txt
	go run ./cmd/benchgate -filter '$(LOAD_FILTER)' -merge BENCH_sim.json -out BENCH_sim.json < /tmp/simload-raw.txt
