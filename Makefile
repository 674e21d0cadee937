GO ?= go

# Packages whose concurrency is exercised under the race detector: the
# worker-pool correlator, the incremental watcher, the HTTP server (and
# its admission-control layer), the serving lifecycle binary, the staged
# pipeline engine, the cmd wiring that drives it, the atomic file writer
# raced against readers, the result store codec behind checkpoint/resume
# and the durable-write primitive under it,
# the notification pipeline (outbound queue drain, contact resolver shared
# across stages), the streaming collector (tailer goroutine, bounded
# event channel, alert hub fan-out), the generator, which renders hours
# on worker goroutines that each own a telescope collector and share the
# flowtuple writer pools, and the view builder, whose digest, UDP table,
# reports body and campaign detection run as tasks beside the device index
# (core.Open's table loads, the other cold-start fan-out, run under
# ./internal/core).
RACE_PKGS = ./internal/correlate ./internal/flowtuple ./internal/apiserve \
	./internal/resilience ./internal/pipeline ./internal/core \
	./internal/resultstore ./internal/wal ./internal/faultfs \
	./internal/outqueue ./internal/abusecontact ./internal/stream \
	./cmd/iotwatch ./cmd/iotserve ./cmd/iotinfer \
	./cmd/iotnotify ./internal/wgen ./internal/telescope \
	./internal/matview

.PHONY: check build test vet race fuzz bench chaos perf perfdiff loc

# The full gate: tier-1 build/test plus vet and the race suite.
check: vet build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet plus the repo's own context-hygiene check: every exported
# function below the serving layer that spawns goroutines must accept a
# context.Context (see tools/ctxvet); and gofmt over the tracked Go files,
# failing when it lists any.
vet:
	$(GO) vet ./...
	$(GO) run ./tools/ctxvet ./internal/... ./cmd/...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
	test -z "$$unformatted" || { echo "gofmt -l lists:" >&2; echo "$$unformatted" >&2; exit 1; }

race:
	$(GO) test -race $(RACE_PKGS)

# Bounded local fuzz budget for the binary decoders and the resolution
# chain: the flowtuple reader and, differentially against compress/gzip,
# the inflater under it, the result store codec (as found, and with its
# checksums repaired so mutations reach the parsers: one image per state),
# the outbound-queue segment codec, the contact-resolver fault matrix, the
# scenario config codec, the wal frame walker (sealed container and open
# tail), and the malware report index; differentially against
# encoding/json, the three JSONL table loaders (inventory, threat events,
# malware catalog); plus one equivalence fuzzer, the campaign tracker fed
# random hour deltas against a fresh Detect.
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=30s ./internal/flowtuple
	$(GO) test -fuzz=FuzzInflate -fuzztime=30s ./internal/flowtuple
	$(GO) test -fuzz=FuzzResultStore -fuzztime=30s ./internal/resultstore
	$(GO) test -fuzz=FuzzResultCanonical -fuzztime=30s ./internal/resultstore
	$(GO) test -fuzz=FuzzOutQueue -fuzztime=30s ./internal/outqueue
	$(GO) test -fuzz=FuzzResolve -fuzztime=15s ./internal/abusecontact
	$(GO) test -fuzz=FuzzScenarioDecode -fuzztime=30s ./internal/wgen
	$(GO) test -fuzz=FuzzFrames -fuzztime=30s ./internal/wal
	$(GO) test -fuzz=FuzzMalwareIndex -fuzztime=30s ./internal/malwaredb
	$(GO) test -fuzz=FuzzLoadInventory -fuzztime=30s ./internal/devicedb
	$(GO) test -fuzz=FuzzLoadThreat -fuzztime=30s ./internal/threatintel
	$(GO) test -fuzz=FuzzLoadCatalog -fuzztime=30s ./internal/malwaredb
	$(GO) test -fuzz=FuzzTrackerMatchesDetect -fuzztime=30s ./internal/campaign

# Serving chaos suite: signal-driven lifecycle (SIGHUP reload under load,
# corrupt-dataset reload, SIGTERM drain) plus HTTP admission-control and
# slow-client shedding, plus the streaming collector killed mid-seal and
# restarted (byte-identical checkpoint, exactly-once alerts) and killed at
# every write, fsync and rename of its checkpoint commits and journal
# appends, plus the notification queue killed at every one of its segment
# commits and delivery-log appends, all race-detector clean.
chaos:
	$(GO) test -race -run 'TestChaos' ./cmd/iotserve ./internal/apiserve ./internal/stream ./internal/outqueue

# Every Go benchmark in the repo, text only: the per-figure/per-table ones
# DESIGN.md §4 indexes and the hot paths, for a profile-in-seconds dev loop.
# They back no claim and gate nothing; the repository benchmark is below.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# The repository benchmark (BENCHMARK.json, tools/perfledger/README.md): one
# workload's ten end-to-end metrics plus, traced, the per-layer ledger.
# make perf W=batch-paper SEED=7
perf: W ?= stream-follow
SEED ?= 1
perf:
	bash tools/perfledger/run.sh --workload $(W) --seed $(SEED) --seconds 24 --trace 1

# The workloads BENCHMARK.json declares, in its order.
WORKLOADS = $(shell sed -n '/"workloads"/,/]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

# The repository benchmark on two commits, judged: for W, or for every
# workload when W is unset, ten alternating pairs (the guides' minimum; seeds
# 1-10) of the checkout against BASE, exported into the build dir, then one
# benchdiff verdict table per workload under BENCHMARK.json's bounds
# (docs/PERFORMANCE.md §Measuring). ≈15 minutes a workload. The first run
# that fails or prints no result line stops the target, naming its side,
# workload and seed; a regressed table fails it once every table is printed.
#   make perfdiff BASE=HEAD~1 W=batch-paper
perfdiff:
	@test -n "$(BASE)" || { echo "usage: make perfdiff BASE=<rev> [W=<workload>]" >&2; exit 2; }
	rm -rf .bench_build/base .bench_build/parent*.jsonl .bench_build/change*.jsonl
	mkdir -p .bench_build/base
	git archive $(BASE) | tar -x -C .bench_build/base
	@once() { \
		dir=.; [ $$1 = change ] || dir=.bench_build/base; \
		out=$$(cd $$dir && bash tools/perfledger/run.sh --workload $$2 --seed $$3 --seconds 24 --trace 0) || \
			{ echo "perfdiff: the $$1 run of $$2, seed $$3, exited $$?" >&2; return 1; }; \
		line=$$(printf '%s\n' "$$out" | tail -1); \
		case $$line in '{'*) ;; *) echo "perfdiff: the $$1 run of $$2, seed $$3, printed no result line" >&2; return 1 ;; esac; \
		printf '%s\n' "$$line" >> .bench_build/$$1-$$2.jsonl; \
	}; \
	status=0; \
	for w in $(or $(W),$(WORKLOADS)); do \
		for i in 1 2 3 4 5 6 7 8 9 10; do \
			if [ $$((i % 2)) = 1 ]; then \
				once parent $$w $$i && once change $$w $$i || exit 1; \
			else \
				once change $$w $$i && once parent $$w $$i || exit 1; \
			fi; \
		done; \
		echo "== $$w"; \
		$(GO) run ./tools/benchdiff -parent .bench_build/parent-$$w.jsonl -change .bench_build/change-$$w.jsonl || status=1; \
	done; \
	exit $$status

# Non-test and test Go lines per package, the figures pruning PRs quote in
# CHANGES.md. make loc | grep -E 'correlate|core$$|iotinfer'
loc:
	@printf '%-40s %8s %8s\n' package non-test test
	@for d in $$(find . -name '*.go' -not -path './.bench_build/*' -exec dirname {} \; | sort -u); do \
		printf '%-40s %8s %8s\n' $$d \
			$$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | wc -l) \
			$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
	done
