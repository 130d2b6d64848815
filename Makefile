GO ?= go

# Solver benchmarks recorded in the perf trajectory. Keep the patterns in
# sync with README's benchmark tables. Three tiers by per-op cost, so each
# gets enough iterations to average out scheduler/GC noise (important on
# small CI runners) without the multi-second passes taking minutes:
# macro benchmarks are ms-scale whole solver passes (20 iterations), heavy
# benchmarks are seconds-scale 1000-instance passes (3 iterations), and
# micro benchmarks are ns-scale move evaluations (thousands).
BENCH_PATTERN_MACRO ?= BenchmarkCPPerNodeBudget|BenchmarkCPThresholdDescent|BenchmarkCPSearchNode|BenchmarkCPTighten|BenchmarkDeltaEvalPortfolio|BenchmarkKMeans1D$$|BenchmarkPatchSortedPairs|BenchmarkWALReplay
BENCH_PATTERN_HEAVY ?= BenchmarkColdPrep1000|BenchmarkDaemonRestart|BenchmarkEpochDecode|BenchmarkKMeans1DLarge|BenchmarkPortfolio1000|BenchmarkStreamingAdvise|BenchmarkStreamingP99Advise|BenchmarkShardedServe|BenchmarkSortedPairsRebuild|BenchmarkWALAppendEpoch
BENCH_PATTERN_MICRO ?= BenchmarkDeltaEvalLL|BenchmarkDeltaEvalLP
BENCH_PATTERN ?= $(BENCH_PATTERN_MACRO)|$(BENCH_PATTERN_HEAVY)|$(BENCH_PATTERN_MICRO)
# bench writes here; untracked (see .gitignore), so a local run never
# overwrites a committed trajectory file. Pass BENCH_OUT=BENCH_PR<N>.json
# to record a new one on purpose.
BENCH_OUT ?= bench-out.json

# The perf trajectory: BENCH_BASE is the previous PR's recorded run,
# BENCH_NEW the current one; bench-diff flags regressions beyond
# BENCH_THRESHOLD percent. Only benchmarks named in BENCH_ALLOWLIST gate
# the exit status (stable whole-pass benchmarks); the rest print as
# informational.
BENCH_BASE ?= BENCH_PR8.json
BENCH_NEW ?= BENCH_PR9.json
BENCH_THRESHOLD ?= 20
BENCH_ALLOWLIST ?= BENCH_ALLOWLIST

# Per-package statement-coverage floors enforced by `make cover` (and CI).
COVER_OUT ?= coverprofile
COVER_FLOORS ?= cloudia/internal/advisor=90 cloudia/internal/measure=90 cloudia/internal/solver=90 cloudia/internal/serve=90 cloudia/internal/wal=90 cloudia/internal/sketch=90 cloudia/internal/lint=90 cloudia/internal/cluster=90 cloudia/internal/netsim=90 cloudia/internal/solver/cp=90 cloudia/internal/core=85 cloudia/internal/graphio=90

.PHONY: build vet test bench bench-smoke bench-diff cover fmt-check crash-test fuzz lint perf-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# crash-test runs the durability suite on its own: the daemon is killed
# at every WAL crashpoint (in-process and by re-execed child dying with
# exit 137), restarted, and must replay to a prefix of the uninterrupted
# history and serve bit-equal advice; it is shut down gracefully with an
# advise in flight, which must finish and log its advice before the logs
# close; and its fail-closed paths run outside -race: a failed append rolls
# the tenant back to its committed matrices, and a failed fsync or
# compaction poisons the log. Two tenants of a measurement group post one
# equal epoch and the second dies at each crashpoint of its append: after
# the restart both serve bit-equal advice from one shared snapshot.
crash-test:
	$(GO) test -run 'TestCrash|TestDaemonCloseDrainsInFlight|TestDaemonAppendFailureRollsBack|TestDaemonFailedFsyncFailsClosed|TestDaemonFailedCompactionFailsClosed|TestDaemonGroupCrashSharesSnapshot' -count=1 -v ./internal/serve/

# fuzz runs the decoders' fuzz targets, 20 s each. FuzzEpochDecode is
# differential: every POST /v1/epoch body must be accepted or refused
# exactly as encoding/json would, with bit-identical values on acceptance,
# read whole and through small windows whose edges numbers straddle.
# FuzzParseNumber is differential one layer down: the epoch decoder's
# one-pass number scan against the JSON grammar check plus
# strconv.ParseFloat, the same accepted and the same bits, on single tokens
# and on tokens followed by one more byte, where the in-window scan must
# find the token's exact end or decline.
# FuzzWALRecord feeds arbitrary frame bodies to the WAL record decoder,
# which must never panic and must re-encode every record it accepts to the
# same bytes, of the length payloadLen sizes frames by; FuzzWALFrame does the same one layer down, for whole frames
# (header, CRC, body). FuzzReadGraph feeds arbitrary documents to the graph
# decoder behind -graph and POST /v1/advise: no panic, the node bound holds,
# and every accepted graph round-trips through WriteGraph. FuzzAdviseRequest
# posts whole advise bodies to a daemon holding one 6-instance tenant: no
# panic, only documented statuses, every 200 reply a valid deployment of the
# posted graph, and /healthz still answering. FuzzSketchSet decodes bytes
# into per-link samples (raw float64 bits, edge values, narrow bands that
# force dense counts) and checks a sketch.Set against one dense oracle
# sketch per link, quantile bits and all, and against a Set fed the same
# samples in reverse order. Their seed corpora
# (testdata/fuzz/ in each package) also run in `make test`.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzEpochDecode$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzParseNumber$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 20s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzWALFrame$$' -fuzztime 20s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReadGraph$$' -fuzztime 20s ./internal/graphio/
	$(GO) test -run '^$$' -fuzz '^FuzzAdviseRequest$$' -fuzztime 20s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzSketchSet$$' -fuzztime 20s ./internal/sketch/

# perf-check vets and tests the cloudia-perf benchmark. It is a nested
# module, so `go build ./...` at the root never compiles it; this target is
# what catches a change to an exported name the benchmark uses.
perf-check:
	cd cmd/cloudia-perf && $(GO) vet ./... && $(GO) test ./...

# bench runs the solver benchmarks and records them as JSON in
# $(BENCH_OUT). -p 1 keeps package test binaries sequential: by default
# `go test ./...` runs them in parallel, so benchmarks in different
# packages would time-share cores and contaminate each other's ns/op.
# (No `| tee`: a pipe would launder the go test exit status — POSIX sh has
# no pipefail — so a failing benchmark run could still record a JSON file.)
bench:
	@rm -f /tmp/cloudia-bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN_MACRO)' -benchmem -benchtime=20x -p 1 ./... >> /tmp/cloudia-bench.out || { cat /tmp/cloudia-bench.out; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN_HEAVY)' -benchmem -benchtime=3x -p 1 ./... >> /tmp/cloudia-bench.out || { cat /tmp/cloudia-bench.out; exit 1; }
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN_MICRO)' -benchmem -benchtime=5000x -p 1 ./... >> /tmp/cloudia-bench.out || { cat /tmp/cloudia-bench.out; exit 1; }
	@cat /tmp/cloudia-bench.out
	scripts/benchjson.sh /tmp/cloudia-bench.out > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# bench-smoke is the CI guard: one iteration of every recorded benchmark,
# just proving they still run (and that CPSearchNode still reports).
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=1x -p 1 ./...

# bench-diff compares the committed perf trajectory files: every benchmark
# present in both BENCH_BASE and BENCH_NEW is checked for a ns/op
# regression beyond BENCH_THRESHOLD percent. Benchmarks named in
# BENCH_ALLOWLIST gate the exit status (CI fails on their regressions);
# the rest are informational. Run locally after `make bench` to see the
# per-benchmark deltas.
bench-diff:
	scripts/benchdiff.sh $(BENCH_BASE) $(BENCH_NEW) $(BENCH_THRESHOLD) $(BENCH_ALLOWLIST)

# cover runs the full test suite with coverage, writes $(COVER_OUT) for
# tooling (`go tool cover -html=$(COVER_OUT)`), and enforces the
# per-package floors in COVER_FLOORS. (No `| tee`, so a test failure's
# exit status reaches make instead of being laundered through the pipe.)
cover:
	$(GO) test -coverprofile=$(COVER_OUT) -cover ./... > /tmp/cloudia-cover.out || { cat /tmp/cloudia-cover.out; exit 1; }
	@cat /tmp/cloudia-cover.out
	scripts/coverfloor.sh /tmp/cloudia-cover.out $(COVER_FLOORS)

# lint runs the determinism analyzer suite (maprange, baregoroutine,
# wallclock, walrecord; see internal/lint and README "Determinism lint")
# over the whole repo. Gating in CI: any unsuppressed finding in a
# deterministic package fails the build, and each finding is printed with
# a ready-to-paste //cloudia:nondet-ok suppression template so the site can
# be deliberately fixed or annotated.
lint:
	$(GO) run ./cmd/cloudia-vet ./...

# fmt-check fails when any file needs gofmt, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
