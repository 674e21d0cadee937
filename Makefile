GO ?= go

# Packages whose concurrency is exercised under the race detector: the
# worker-pool correlator, the incremental watcher, the HTTP server (and
# its admission-control layer), the serving lifecycle binary, the staged
# pipeline engine, the cmd wiring that drives it, the atomic file writer
# raced against readers, the result store codec behind checkpoint/resume
# and the durable-write primitive under it,
# the notification pipeline (outbound queue drain, contact resolver shared
# across stages), and the streaming collector (tailer goroutine, bounded
# event channel, alert hub fan-out).
RACE_PKGS = ./internal/correlate ./internal/flowtuple ./internal/apiserve \
	./internal/resilience ./internal/pipeline ./internal/core \
	./internal/resultstore ./internal/wal ./internal/faultfs \
	./internal/outqueue ./internal/abusecontact ./internal/stream \
	./cmd/iotwatch ./cmd/iotserve ./cmd/iotinfer ./cmd/iotreport \
	./cmd/iotnotify

.PHONY: check build test vet race fuzz bench benchall benchdiff chaos perf loc

# The full gate: tier-1 build/test plus vet and the race suite.
check: vet build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus the repo's own context-hygiene check: every exported
# function below the serving layer that spawns goroutines must accept a
# context.Context (see tools/ctxvet).
vet:
	$(GO) vet ./...
	$(GO) run ./tools/ctxvet ./internal/... ./cmd/...

race:
	$(GO) test -race $(RACE_PKGS)

# Bounded local fuzz budget for the binary decoders and the resolution
# chain: the flowtuple reader, the result store codec, the outbound-queue
# segment codec, the contact-resolver fault matrix, the registry's
# prefix-lookup boundaries, the scenario config codec, the wal frame
# walker (sealed container and open tail), and the malware report index.
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/flowtuple
	$(GO) test -fuzz=FuzzResultStore -fuzztime=30s ./internal/resultstore
	$(GO) test -fuzz=FuzzOutQueue -fuzztime=30s ./internal/outqueue
	$(GO) test -fuzz=FuzzResolve -fuzztime=15s ./internal/abusecontact
	$(GO) test -fuzz=FuzzLookup -fuzztime=15s ./internal/geo
	$(GO) test -fuzz=FuzzScenarioDecode -fuzztime=30s ./internal/wgen
	$(GO) test -fuzz=FuzzFrames -fuzztime=30s ./internal/wal
	$(GO) test -fuzz=FuzzMalwareIndex -fuzztime=30s ./internal/malwaredb

# Serving chaos suite: signal-driven lifecycle (SIGHUP reload under load,
# corrupt-dataset reload, SIGTERM drain) plus HTTP admission-control and
# slow-client shedding, plus the streaming collector killed mid-seal and
# restarted (byte-identical checkpoint, exactly-once alerts) and killed at
# every write, fsync and rename of its checkpoint commits and journal
# appends, plus the notification queue killed at every one of its segment
# commits and delivery-log appends, all race-detector clean.
chaos:
	$(GO) test -race -run 'TestChaos' ./cmd/iotserve ./internal/apiserve ./internal/stream ./internal/outqueue

# Hot-path acceptance benchmarks, recorded as a committed benchstat-
# comparable JSON file (see docs/PERFORMANCE.md). Compare two runs with:
#   go run ./tools/bench2json -extract BENCH_<old>.json > old.txt
#   go run ./tools/bench2json -extract BENCH_<new>.json > new.txt
#   benchstat old.txt new.txt
BENCH_DATE ?= $(shell date +%F)
BENCH_TAG ?= dev
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineCorrelate$$|BenchmarkPipelineCorrelateSharded$$|BenchmarkPipelineStaged$$|BenchmarkIncrementalIngest$$|BenchmarkStreamIngest$$|BenchmarkStreamIngestDurable$$|BenchmarkSnapshotSave$$|BenchmarkSnapshotLoad$$|BenchmarkSnapshotAnalyze$$|BenchmarkOpen$$|BenchmarkServeSummary$$|BenchmarkServeDevicesFilter$$|BenchmarkServeHTTPLoad$$|BenchmarkGenerate$$' \
		-benchmem -benchtime 2s -count 3 . ./internal/apiserve \
		| $(GO) run ./tools/bench2json -date $(BENCH_DATE) -tag $(BENCH_TAG) > BENCH_$(BENCH_DATE)-$(BENCH_TAG).json
	$(GO) run ./tools/bench2json -extract BENCH_$(BENCH_DATE)-$(BENCH_TAG).json

# Regression gate against the newest committed BENCH_*.json: >25% median
# regression of the correlation hot path, the followed drain (in memory
# and durable) or the HTTP serve hot paths fails; cross-machine baselines
# are skipped with a warning (see tools/benchdiff).
benchdiff:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineCorrelate$$|BenchmarkStreamIngest$$|BenchmarkStreamIngestDurable$$|BenchmarkServeSummary$$|BenchmarkServeDevicesFilter$$|BenchmarkGenerate$$' -benchmem -count 5 . ./internal/apiserve \
		| $(GO) run ./tools/bench2json -date $(BENCH_DATE) -tag gate > /tmp/bench-gate.json
	$(GO) run ./tools/benchdiff -new /tmp/bench-gate.json -dir . -bench PipelineCorrelate,StreamIngest,StreamIngestDurable,ServeSummary,ServeDevicesFilter,Generate -threshold 25

# The repository benchmark (BENCHMARK.json, tools/perfledger/README.md): one
# workload's ten end-to-end metrics plus, traced, the per-layer ledger.
# make perf W=batch-paper SEED=7
W ?= stream-follow
SEED ?= 1
perf:
	bash tools/perfledger/run.sh --workload $(W) --seed $(SEED) --seconds 24 --trace 1

# Non-test and test Go lines per package, the figures pruning PRs quote in
# CHANGES.md. make loc | grep -E 'correlate|core$$|iotinfer'
loc:
	@printf '%-40s %8s %8s\n' package non-test test
	@for d in $$(find . -name '*.go' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%-40s %8s %8s\n' $$d \
			$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l) \
			$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
	done

# Every benchmark in the repo, text output only.
benchall:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
