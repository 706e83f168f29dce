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
# set-up (New + SealInit at 16 procs x 8 MB, and NewFromImage attaching
# 16 procs to a sealed 8 MB image), lock hand-off and demand
# fault + fetch (the inputs of the perf probes tmk.lock_handoff_us and
# tmk.fault_fetch_us), core's Validate recomputing and revalidating
# a 4096-entry indirect descriptor (the input of the core.validate_*
# probes), and the chaos inspector on a moldyn-sized reference stream
# and one executor gather/scatter round at 8 procs. Their costs are six
# orders of magnitude apart (3 ns, 3 ms), so no iteration count suits
# all: they run in their own invocation on a time budget.
BENCH_LAYER_PKGS    := ./internal/vm ./internal/diff ./internal/tmk ./internal/core ./internal/chaos
BENCH_LAYER_PATTERN := ^Benchmark(ReadF64|WriteF64|EncodeSparse|EncodeDense|NewSealInit|NewFromImage|LockHandoff|FaultFetch|ValidateRecompute|ValidateRevalidate|Inspect|GatherScatter)$$
BENCH_LAYER_FLAGS   := -run '^$$' -bench '$(BENCH_LAYER_PATTERN)' -benchtime=200ms -count=6

# The in-process benchmark names, as a benchgate -filter: the bench
# legs gate only these against BENCH_sim.json, and the service leg
# gates only BenchmarkSimdLoad — each leg filters the shared baseline
# to what it actually ran.
GATE_FILTER  := ^Benchmark(Arbiter|Delivery|Send|StatsCount|TableSweep|ReadF64|WriteF64|EncodeSparse|EncodeDense|NewSealInit|NewFromImage|LockHandoff|FaultFetch|ValidateRecompute|ValidateRevalidate|Inspect|GatherScatter)
LOAD_FILTER  := ^BenchmarkSimdLoad

# The service load test (cmd/simd + cmd/simload); see README "Running
# as a service". SIMD_ADDR must be free.
SIMD_ADDR     := 127.0.0.1:7077
SIMLOAD_FLAGS := -addr http://$(SIMD_ADDR) -corpus scenarios/service -workers 8 -requests 200 -miss 0.25

# The fuzz targets as pkg:Target pairs: diff.Encode against the
# byte-at-a-time reference encoder, the scenario decoder, the disk
# entry decoder, and the kernel front end (parse, analyse, transform). `make fuzz` mutates each one's seeds for FUZZTIME in
# turn and stops at the first failure, whose input lands under
# <pkg>/testdata/fuzz/<Target>/ (commit it as a regression seed).
FUZZ_TARGETS := ./internal/diff:FuzzEncode ./internal/scenario:FuzzParse ./internal/bench:FuzzDecodeEntry ./internal/compiler:FuzzAnalyze
FUZZTIME     ?= 30s

.PHONY: test race fuzz cover reach size bench-baseline bench-check bench-ci profile serve loadtest loadtest-baseline

test:
	go build ./... && go test ./...

race:
	go test -race ./...

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*} target=$${t##*:}; \
		echo "go test -run '^$$' -fuzz '^$$target\$$' -fuzztime $(FUZZTIME) $$pkg"; \
		go test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done

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

# Reach scan: the internal/ functions the shipped product never runs,
# as opposed to `make cover`'s functions no test reaches. cmd/scenario
# and cmd/simd are built with coverage over the whole module and run
# the shipped corpus (./scenarios, claims/, perturb/ and service/ with
# -metrics), a traced -repro run and its trace-summary, and one round
# of the scenarios/service specs through simd on loopback: each spec
# submitted twice (a run, then a memory-tier hit), then once more to a
# restarted simd over the same disk tier (a cold start). The functions
# at 0% are printed, minus String, MarshalText and UnmarshalText.
# Advisory, like `make cover`: nothing gates on the list.
REACH_DIR  := /tmp/reach
REACH_ADDR := 127.0.0.1:7078
REACH_COV  := GOCOVERDIR=$(REACH_DIR)/cov

# One simd process over $(REACH_DIR)/cache that gets every
# scenarios/service spec $(1) times (status and rendering fetched each
# time) and whose /metrics is scraped once. simd is stopped by its own
# PID with SIGTERM, on which it drains and exits 0, writing its
# coverage counters.
define reach-service
$(REACH_COV) $(REACH_DIR)/simd -addr $(REACH_ADDR) -cache-dir $(REACH_DIR)/cache -workers 2 2>> $(REACH_DIR)/simd.log & \
pid=$$!; trap 'kill -TERM $$pid 2>/dev/null; wait $$pid' EXIT; \
for _ in $$(seq 50); do curl -sf http://$(REACH_ADDR)/readyz > /dev/null && break; sleep 0.2; done; \
for f in scenarios/service/*.yaml; do for _ in $$(seq $(1)); do \
	addr=$$(curl -sf -X POST --data-binary @$$f 'http://$(REACH_ADDR)/v1/runs?wait=1' \
		| sed -n 's/.*"address":"\([0-9a-f]\{64\}\)".*/\1/p'); \
	test -n "$$addr" || { echo "reach: simd did not serve $$f" >&2; exit 1; }; \
	curl -sf http://$(REACH_ADDR)/v1/runs/$$addr > /dev/null && \
	curl -sf http://$(REACH_ADDR)/v1/runs/$$addr/render > /dev/null || exit 1; \
done; done; \
curl -sf http://$(REACH_ADDR)/metrics > /dev/null
endef

reach:
	rm -rf $(REACH_DIR) && mkdir -p $(REACH_DIR)/cov
	go build -cover -coverpkg=./... -o $(REACH_DIR)/scenario ./cmd/scenario
	go build -cover -coverpkg=./... -o $(REACH_DIR)/simd ./cmd/simd
	$(REACH_COV) $(REACH_DIR)/scenario run -metrics ./scenarios ./scenarios/claims ./scenarios/perturb ./scenarios/service > /dev/null
	$(REACH_COV) $(REACH_DIR)/scenario run -repro -trace $(REACH_DIR)/traces ./scenarios/trace.yaml > /dev/null
	$(REACH_COV) $(REACH_DIR)/scenario trace-summary $(REACH_DIR)/traces/*.trace.json > /dev/null
	@$(call reach-service,2)
	@$(call reach-service,1)
	@echo "internal/ functions the product never runs:"
	@go tool covdata func -i=$(REACH_DIR)/cov | awk '$$1 ~ /\/internal\// && $$NF == "0.0%" { \
		name = $$2; sub(/.*\./, "", name); if (name !~ /^(String|MarshalText|UnmarshalText)$$/) print "  " $$1, $$2 }'

# Code size: the non-test and test *.go line counts (wc -l) that the
# ROADMAP quotes. A report, not a check.
# Hidden directories (benchmark build copies) are skipped.
size:
	@printf 'non-test %s\ntest     %s\n' \
		"$$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)" \
		"$$(find . -path './.*' -prune -o -name '*_test.go' -print | xargs cat | wc -l)"

# Profile a representative traced scenario run end to end: CPU and
# allocation profiles land in /tmp for `go tool pprof`. The flags are
# cmd/scenario's own (-cpuprofile/-memprofile precede the subcommand),
# so any invocation can be profiled the same way.
profile:
	go run ./cmd/scenario -cpuprofile /tmp/scenario.cpu.pprof -memprofile /tmp/scenario.mem.pprof \
		run -trace /tmp/traces ./scenarios/trace.yaml > /dev/null
	@echo "profiles: /tmp/scenario.cpu.pprof /tmp/scenario.mem.pprof (go tool pprof <file>)"

# Measure the gated set into the raw file $(1): one invocation per
# group above. Separate commands, not a pipe: a benchmark that panics
# mid-run must fail the target instead of handing benchgate partial
# output.
define bench-measure
go test $(BENCH_FLAGS) $(BENCH_PKGS) > $(1)
go test $(BENCH_SWEEP_FLAGS) ./internal/runner >> $(1)
go test $(BENCH_LAYER_FLAGS) $(BENCH_LAYER_PKGS) >> $(1)
endef

# Refresh the committed baseline on this machine.
bench-baseline:
	$(call bench-measure,/tmp/bench-raw.txt)
	go run ./cmd/benchgate -filter '$(GATE_FILTER)' -merge BENCH_sim.json -out BENCH_sim.json < /tmp/bench-raw.txt

# Run the same gate CI runs: fail if anything regressed >30%.
bench-check:
	$(call bench-measure,/tmp/bench-raw.txt)
	go run ./cmd/benchgate -filter '$(GATE_FILTER)' -baseline BENCH_sim.json < /tmp/bench-raw.txt

# The CI bench leg's gate, for its first measurement and its one
# re-measure: the raw numbers land in bench-raw.txt and the run's
# snapshot in bench-current.json, the two files the leg uploads.
# -cpu-mismatch=warn: a regression only fails when the committed
# baseline came from this machine's CPU class — ratios across machine
# classes are hardware, not code. Arm the gate by committing a
# bench-current.json from a run on this class as BENCH_sim.json
# (README "Performance").
bench-ci:
	$(call bench-measure,bench-raw.txt)
	go run ./cmd/benchgate -filter '$(GATE_FILTER)' -baseline BENCH_sim.json -out bench-current.json \
		-cpu-mismatch=warn < bench-raw.txt

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
