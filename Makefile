# Targets mirror the CI jobs (.github/workflows/ci.yml); `make build
# test` is the tier-1 verify.

.PHONY: build test perfbench-test bench bench-engine bench-rebalance bench-delete bench-repair bench-workload bench-compare bench-sstable fuzz-smoke deploy-smoke lint

build:
	go build ./...

test:
	go test -race -shuffle=on ./...

# The repo benchmark (perfbench/) is its own Go module, so the root
# `go vet ./...` and `go test ./...` never build it; this keeps a
# library API change from breaking it unnoticed.
perfbench-test:
	cd perfbench && go vet ./... && go test ./...

bench:
	go test -run=NONE -bench=. -benchtime=1x ./...

# The mixed read/write benches (parallel Get+Put on the sharded engine,
# and against a RF=2 cluster) are the lock-contention canary: run them
# on any change to internal/storage's hot path.
bench-engine:
	go test -run=NONE -bench=EngineMixedParallel -benchtime=0.5s ./internal/storage/
	go test -run=NONE -bench=ClusterMixedRW -benchtime=0.5s .

# Elasticity canary: ingest + read throughput while a node joins, the
# epoch-flip pause and the moved-cell count. Run on any change to the
# hashring diff, the coordinator state machine, or the client's
# epoch-retry/failover paths.
bench-rebalance:
	go test -run=NONE -bench=Rebalance -benchtime=3x .

# Delete-path canary: mixed Put/Get/Delete throughput on the engine
# (tombstone writes + versioned merge), plus the delete-under-rebalance
# convergence smoke (overwrites and deletes racing a live join must end
# identical on every replica). Run on any change to cell versioning,
# tombstones, or the LWW merge.
bench-delete:
	go test -run=NONE -bench=EngineMixedDelete -benchtime=0.5s ./internal/storage/
	go test -run 'TestOverwriteAndDeleteDuringRebalanceConverge' -count=1 ./internal/cluster/

# Anti-entropy canary: repair a seeded-divergence rf=2 cluster (cells
# reconciled/sec) and digest a converged one (must ship zero cells),
# plus the repair-convergence test. Run on any change to the digest
# tree, the repair walk, tombstone GC or the migration fence.
bench-repair:
	go test -run=NONE -bench=Repair -benchtime=3x .
	go test -run 'TestRepairConverges' -count=1 ./internal/cluster/

# Workload lab, quick mode (≤60s): the read-heavy and hotspot mixes of
# cmd/kvload against a 4-node in-process cluster, each persisted as
# BENCH_<mix>.json and schema-validated — the perf-trajectory record
# every PR's latency/throughput claim is judged against. CI uploads
# the JSON as a build artifact. Full-length local runs: drop -quick
# (the files are gitignored; commit intentionally to extend the
# committed trajectory).
GITREV := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
bench-workload:
	go run ./cmd/kvload -mix read-heavy -quick -gitrev $(GITREV)
	go run ./cmd/kvload -mix hotspot -quick -gitrev $(GITREV)
	go run ./cmd/kvload -validate BENCH_read-heavy.json BENCH_hotspot.json

# Regression gate against the committed trajectory: re-run the quick
# mixes into a scratch directory and diff each against its committed
# BENCH_<mix>.json (exit 3 on a throughput loss or p99 growth beyond
# TOLERANCE at any matched client count; default 10%). CI runs this as
# a non-blocking report — shared runners are too noisy for a hard gate
# — but locally it is the before/after check for any hot-path change:
# `make bench-compare TOLERANCE=0.05` tightens the gate for cache-level
# wins that a 10% band would hide.
TOLERANCE ?= 0.10
bench-compare:
	@mkdir -p .bench-fresh
	@status=0; \
	go run ./cmd/kvload -mix read-heavy -quick -gitrev $(GITREV) -out .bench-fresh && \
	go run ./cmd/kvload -mix hotspot -quick -gitrev $(GITREV) -out .bench-fresh && \
	go run ./cmd/kvload -compare -tolerance $(TOLERANCE) BENCH_read-heavy.json .bench-fresh/BENCH_read-heavy.json && \
	go run ./cmd/kvload -compare -tolerance $(TOLERANCE) BENCH_hotspot.json .bench-fresh/BENCH_hotspot.json || status=$$?; \
	rm -rf .bench-fresh; \
	exit $$status

# SSTable canaries: cold point-read cost (must stay index + one block),
# full-scan throughput through the block iterator, the read-path memory
# hierarchy on a larger-than-cache working set (hit path, miss path,
# scan-through-compressed), and the delete-churn write-amp / table-count
# bound the leveled compactor enforces. Run on any change to
# internal/sstable, the block cache or the compaction policy.
bench-sstable:
	go test -run=NONE -bench='V3ColdPointRead|V3FullScan' -benchtime=0.5s ./internal/sstable/
	go test -run=NONE -bench='CacheHitPointRead|CacheMissPointRead|ScanThroughCompressed' -benchtime=0.5s ./internal/sstable/
	go test -run=NONE -bench='DeleteChurn|GrowingIngest' -benchtime=100000x ./internal/storage/

# Multi-process deployment smoke: three kvstore processes form a ring
# over TCP (bootstrap + two wire-level joins), kvload drives a mixed
# workload, a fourth process joins mid-load — zero failed operations
# required. The only gate that crosses process boundaries; run on any
# change to membership, the join state machine, topology persistence
# or the CLI.
deploy-smoke:
	./scripts/deploy_smoke.sh

# Short fuzz pass over the v3 block codec: decode must never panic on
# arbitrary bytes and encode→decode must round-trip. CI runs this as a
# smoke; local soak: raise -fuzztime.
fuzz-smoke:
	go test -run=NONE -fuzz=FuzzBlockCodec -fuzztime=10s ./internal/sstable/

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
