GO ?= go

.PHONY: verify build fmt vet test smoke lint cover bench bench-compare golden race fuzz sweep-smoke shard-smoke sweepd-smoke lsi-smoke perfbench-check

# Tier-1 verification plus gofmt, vet, repolint and the benchmark
# harness check: what CI runs.
verify: build fmt vet lint test smoke perfbench-check

build:
	$(GO) build ./...

# Fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness (perfbench/) is its own Go module, so the root
# `go build ./...` never compiles it: vet and test it here, so deleting
# an exported name it needs fails verify instead of the benchmark run.
# Works offline through its replace directive and edits no file there.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Fast §7 headline check: the paper's numbers, nothing else.
smoke:
	$(GO) test -run 'TestHeadlines' ./internal/dist/

# Repo-contract static analysis (stdlib-only, cmd/repolint): the
# determinism, registry, invalidation, hotpath, sentinel-errors and
# oracle (no non-test import of the reference simulator
# internal/logicsim/ref) analyzers over every package. Nonzero exit on
# any finding.
lint:
	$(GO) run ./cmd/repolint

# Statement coverage of the probability substrate, enforcing the 90% floor.
cover:
	@$(GO) test -coverprofile=/tmp/dist.cover ./internal/dist/
	@$(GO) tool cover -func=/tmp/dist.cover | awk '/^total:/ { \
		pct = $$3 + 0; printf "internal/dist statement coverage: %s\n", $$3; \
		if (pct < 90) { print "FAIL: below the 90% floor"; exit 1 } }'

# Reproduction log: one benchmark per table/figure of the paper, plus
# the circuits-layer cold-vs-cached preparation pair (BenchmarkPrepared)
# and the sweep throughput matrix. CI runs this as its bench step.
bench:
	$(GO) test -bench=. -benchtime=1x .

# Kernel regression gate: the fault-simulation and lot-engine suites
# (BenchmarkEngines, BenchmarkLotEngines) of the base revision BASE and
# of the working tree, paired on this host. BASE is exported with git
# archive into /tmp/bench-compare and each side's test binary is built
# once; then 10 pairs run, each binary in its own source tree,
# alternating which side goes first. Fails
# when any row's median throughput, in either suite, falls more than
# 25% below the base's; a row on one side only prints as new or gone.
# Writes the head medians to the untracked bench-current.json (schema
# documented in cmd/benchjson), which CI archives. The checked-in
# BENCH_PR*.json files are history; nothing reads them.
BASE ?= HEAD~1
bench-compare:
	rm -rf /tmp/bench-compare && mkdir -p /tmp/bench-compare/base
	git archive $(BASE) | tar -x -C /tmp/bench-compare/base
	cd /tmp/bench-compare/base && $(GO) test -c -o /tmp/bench-compare/base.test .
	$(GO) test -c -o /tmp/bench-compare/head.test .
	head=$$(pwd); for i in 1 2 3 4 5 6 7 8 9 10; do \
		if [ $$((i % 2)) = 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			if [ $$side = base ]; then dir=/tmp/bench-compare/base; else dir=$$head; fi; \
			(cd $$dir && /tmp/bench-compare/$$side.test -test.run '^$$' -test.timeout 10m \
				-test.bench 'BenchmarkEngines|BenchmarkLotEngines' -test.benchtime 40x) \
				>> /tmp/bench-compare/$$side.txt || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson -out bench-current.json /tmp/bench-compare/base.txt /tmp/bench-compare/head.txt

# Golden guard: the paper-number fixtures (sweep CSV, dist sample
# sequences, Prepared-store file digests, the §7 reject-rate
# validation table) must stay byte-identical
# across engine ports, and the tester's single-fault first-detect table
# must agree with simulating the chip. CI fails the build if an engine
# drifts them.
golden:
	$(GO) test -run 'Golden|FirstDetectTable' ./internal/sweep/ ./internal/dist/ ./internal/circuits/ ./internal/tester/ ./internal/experiment/

# Race-detect the whole module (-short skips the multi-second
# Monte-Carlo runs and the full-module lint sweep): the hand-picked
# package list this target used to carry kept silently aging as new
# concurrent layers appeared.
race:
	$(GO) test -race -short ./...

# Native fuzzing: each fuzz target explores past its seed corpus for
# FUZZTIME (plain `go test` only replays the seeds). go test -fuzz takes
# one target per run, hence one line each.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzNewChipFaultCount$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzPoissonPMFCDF$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzHypergeometricPZero$$' -fuzztime $(FUZZTIME) ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzParseBench$$' -fuzztime $(FUZZTIME) ./internal/netlist/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSnapshot$$' -fuzztime $(FUZZTIME) ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreLoad$$' -fuzztime $(FUZZTIME) ./internal/circuits/
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime $(FUZZTIME) ./internal/circuits/
	$(GO) test -run '^$$' -fuzz '^FuzzSampleDistinct$$' -fuzztime $(FUZZTIME) ./internal/defect/
	$(GO) test -run '^$$' -fuzz '^FuzzChipWalk$$' -fuzztime $(FUZZTIME) ./internal/logicsim/
	$(GO) test -run '^$$' -fuzz '^FuzzPodem$$' -fuzztime $(FUZZTIME) ./internal/atpg/
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime $(FUZZTIME) ./cmd/sweepd/

# Tiny end-to-end Monte-Carlo grid through the real CLI over a
# two-circuit campaign: seconds, not minutes, yet it exercises the
# workload registry, per-circuit ATPG + ramp (each prepared exactly
# once), the pool, and every format.
sweep-smoke:
	$(GO) run ./cmd/sweep -circuits mul4,cmp8 -random 32 -yields 0.2 -n0s 3 \
		-chips 80 -coverages 0.3,0.6 -replicates 4 -workers 2 -seed 7 -format table

# Sharded campaign through the real CLI, on sweep-smoke's grid: a plain
# CSV run, shards 0/2 and 1/2 each into its own -checkpoint file, and a
# -merge of the two files, which must be byte-identical to the plain CSV.
SHARD_GRID = -circuits mul4,cmp8 -random 32 -yields 0.2 -n0s 3 -chips 80 \
	-coverages 0.3,0.6 -replicates 4 -workers 2 -seed 7
SHARD_DIR ?= /tmp/shard-smoke
shard-smoke:
	rm -rf $(SHARD_DIR) && mkdir -p $(SHARD_DIR)
	$(GO) build -o $(SHARD_DIR)/sweep ./cmd/sweep
	$(SHARD_DIR)/sweep $(SHARD_GRID) -format csv > $(SHARD_DIR)/plain.csv
	$(SHARD_DIR)/sweep $(SHARD_GRID) -shard 0/2 -checkpoint $(SHARD_DIR)/s0.shard
	$(SHARD_DIR)/sweep $(SHARD_GRID) -shard 1/2 -checkpoint $(SHARD_DIR)/s1.shard
	$(SHARD_DIR)/sweep $(SHARD_GRID) -merge $(SHARD_DIR)/s0.shard,$(SHARD_DIR)/s1.shard \
		-format csv > $(SHARD_DIR)/merged.csv
	cmp $(SHARD_DIR)/plain.csv $(SHARD_DIR)/merged.csv
	@echo "shard-smoke: merged shard files byte-identical to the plain run"

# ISCAS-scale smoke: the embedded 1k-gate fixture end to end — sampled
# fault universe, budgeted ATPG with an outcome tally, and the on-disk
# Prepared store. The test half (skipped under -short, so `make race`
# stays fast) pins the zero-rebuild warm-store contract through the
# cache counters; the CLI half runs the same campaign cold then warm
# against $(PREPARED_DIR) and requires byte-identical CSV. CI caches
# the store directory, so later builds skip the cold ATPG entirely.
PREPARED_DIR ?= .prepared-store
lsi-smoke:
	$(GO) test -run TestLSIScaleStore ./internal/circuits/
	$(GO) run ./cmd/sweep -circuits lsi1k -random 48 -sample-faults 150 -backtrack-limit 50 \
		-yields 0.2 -n0s 3 -chips 60 -coverages 0.15,0.3 -replicates 2 -workers 2 -seed 7 \
		-prepared-dir $(PREPARED_DIR) -format csv > /tmp/lsi-cold.csv
	$(GO) run ./cmd/sweep -circuits lsi1k -random 48 -sample-faults 150 -backtrack-limit 50 \
		-yields 0.2 -n0s 3 -chips 60 -coverages 0.15,0.3 -replicates 2 -workers 7 -seed 7 \
		-prepared-dir $(PREPARED_DIR) -format csv > /tmp/lsi-warm.csv
	cmp /tmp/lsi-cold.csv /tmp/lsi-warm.csv
	@echo "lsi-smoke: cold and warm Prepared-store runs byte-identical"

# Daemon crash/resume smoke: build the real sweepd binary, start it,
# submit a two-circuit campaign, SIGKILL the process mid-run, restart it
# on the same checkpoint directory, resubmit, and diff the final CSV
# against an in-process run — byte-identical or the build fails.
sweepd-smoke:
	SWEEPD_E2E=1 $(GO) test -run TestE2ECrashResume -v ./cmd/sweepd/
