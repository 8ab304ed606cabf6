GO ?= go

.PHONY: build test race vet stress crash wal serve shard apicheck bench bench-short coldbench coldbench-short nouring ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 concurrency check: every package runs under the race detector —
# the btree read path, the buffer pool, and the engine facade all have
# concurrent callers now.
race:
	$(GO) test -race ./...

# The concurrency stress suite alone, race-enabled and without cached
# results: engine-level mixed workloads, snapshot isolation under
# committing writers, per-tree reader storms, and the tracker-merge
# accounting invariance.
stress:
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|Race|Stats|Snapshot|Stress|Writer' ./...

vet:
	$(GO) vet ./...

# Tier-2 durability check, race-enabled and uncached: the crash matrix
# (power-cut at every I/O op under both power models), torn/short-write
# header tears, page/file/snapshot corruption sweeps, and the fault-
# injection propagation tests across pager, bufferpool, and facade.
crash:
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -run 'Corrupt|Crash|Torn|Header|Recover|Orphan|Fault|Fail|Checkpoint|Durab|FlushMeta|FlushReleases' ./internal/pager/ ./internal/bufferpool/ ./internal/btree/ .

# Write-ahead-log check, race-enabled and uncached: the log's unit suite
# (framing, torn tails, group-commit coalescing, truncation slots), the
# facade recovery tests (crash images, replay idempotence, writers
# progressing through an in-flight incremental checkpoint), the WAL crash
# matrix (power-cut at every log/data/manifest op under both power
# models, torn writes), and the /metrics wal_* series.
wal:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'WAL' . ./internal/faultfs/ ./internal/server/

# Read-path performance trajectory: the go-test micro-benchmarks (node
# decode, point lookup, the four facade query shapes) plus the readbench
# suite, which writes BENCH_read.json (queries/sec, ns/op, allocs/op per
# query shape, node cache on vs. off).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchmem ./internal/btree/
	$(GO) run ./cmd/uindexbench -readbench -benchjson BENCH_read.json

# bench in short mode: same code paths at smoke scale, single benchmark
# iterations, JSON discarded. CI runs this so the benchmarks can't bit-rot.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchtime 1x -benchmem ./internal/btree/
	$(GO) run ./cmd/uindexbench -readbench -short -benchjson /tmp/BENCH_read.json

# Cold-cache benchmark: disk-backed databases, node caches + buffer pools +
# OS page cache dropped before every timed query, prefetch off vs. on per
# query shape. Writes BENCH_cold.json (median ns/op, per-iteration samples,
# logical page counts, prefetch counters, io_uring availability).
coldbench:
	$(GO) run ./cmd/uindexbench -readbench -cold -benchjson BENCH_cold.json

# coldbench at smoke scale: tiny database, one pass through the same
# eviction and measurement code paths, JSON discarded. CI runs this so the
# cold path can't bit-rot.
coldbench-short:
	$(GO) run ./cmd/uindexbench -readbench -cold -short -benchjson /tmp/BENCH_cold.json

# The portable batched-read fallback: build and test the storage stack with
# io_uring compiled out (-tags nouring), so the bounded-goroutine preadv
# path stays honest on the platforms (and kernels) that need it.
nouring:
	$(GO) build -tags nouring ./...
	$(GO) test -tags nouring -count=1 ./internal/pager/ ./internal/bufferpool/ ./internal/btree/ ./internal/experiments/parallel/

# Network-subsystem check, race-enabled and uncached: the wire-protocol
# round trips, the server/client integration suite (concurrent sessions,
# snapshot isolation, admission control, graceful drain), the metrics
# registry, and the session/metrics satellites on the facade.
serve:
	$(GO) test -race -count=1 ./internal/server/ ./internal/obs/
	$(GO) test -race -count=1 -run 'Metrics|QueryParallelCancellation|CloseReleasesSnapshots|NetShapes' . ./internal/experiments/parallel/

# Sharding check, race-enabled and uncached: the shard-invariance suite
# (sharded results identical to flat under every layout), the batched write
# surface, the cross-shard writer stress, and the sharded crash matrix (two
# shard files + manifest, crashed at every op on every device).
shard:
	$(GO) test -race -count=1 -run 'Shard|ApplyBatch' . ./internal/core/ ./internal/pager/ ./internal/faultfs/

# API-surface check: vet plus a grep that keeps the removed query wrappers
# (QueryWith/QueryString) from creeping back anywhere — they were deleted in
# favor of Query with options, and the batched write surface (Apply) is the
# only multi-mutation entry point.
apicheck: vet
	@deprecated=$$(grep -rnE --include='*.go' '\.(QueryWith|QueryString)\(' . || true); \
	if [ -n "$$deprecated" ]; then \
		echo "removed query API referenced:"; \
		echo "$$deprecated"; \
		exit 1; \
	fi
	@echo "apicheck: ok"

# The one definition of CI: the workflow runs exactly this target.
ci: build apicheck test race stress crash wal serve shard nouring bench-short coldbench-short
