GO ?= go

.PHONY: verify build fmt vet test smoke lint cover bench bench-json bench-compare golden race fuzz sweep-smoke sweepd-smoke lsi-smoke perfbench-check

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

# Persisted engine-matrix benchmark: runs the fault-simulation and
# lot-engine suites (one engine each, plus the sharded ppsfp row) and
# writes chips/s and fault-patterns/s per engine×circuit to the
# untracked bench-current.json (schema documented in cmd/benchjson).
# CI archives the file as a build artifact. The checked-in
# BENCH_PR*.json files are the append-only history and are never
# overwritten here.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkEngines|BenchmarkLotEngines' -benchtime 40x . \
		| $(GO) run ./cmd/benchjson -out bench-current.json
	@echo "wrote bench-current.json"

# Soft regression gate over the persisted matrix: compares the fresh
# bench-current.json against the newest checked-in record,
# BENCH_PR9.json, and fails only on a >25% fault-patterns/s slide in
# the engines suite (lot-engines and smaller slips print as warnings —
# CI runners are noisy). Engines retired since the record print as
# "gone".
bench-compare:
	$(GO) run ./cmd/benchjson -in bench-current.json -baseline BENCH_PR9.json -fail-over 25

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
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime $(FUZZTIME) ./cmd/sweepd/

# Tiny end-to-end Monte-Carlo grid through the real CLI over a
# two-circuit campaign: seconds, not minutes, yet it exercises the
# workload registry, per-circuit ATPG + ramp (each prepared exactly
# once), the pool, and every format.
sweep-smoke:
	$(GO) run ./cmd/sweep -circuits mul4,cmp8 -random 32 -yields 0.2 -n0s 3 \
		-chips 80 -coverages 0.3,0.6 -replicates 4 -workers 2 -seed 7 -format table

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
