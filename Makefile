# pblocks — development targets

GO ?= go

.PHONY: all build test race bench bench-all bench-diff check fuzz stress serve-smoke shard-smoke repro lint fmt vet cover clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the pre-merge gate: vet everything, run the race detector over
# the packages with real concurrency (the worker pool with its chunked
# dispatch, the MapReduce engine and its simulated cluster, the
# interpreter, the bytecode machine with its shared lowered programs, the
# block AST's canonical encoder that keys them and the ring tier, the
# ring compiler, the parallel blocks, the observability registry with its
# 64-goroutine hammer, the program cache with its singleflight front, and
# the execution service and the shard router with its concurrent failover
# e2e, plus the evolutionary stress engine itself), shuffled so
# inter-test ordering dependencies can't hide, repeat the router's
# failover and forwarder tests so the race between a backend closing a
# pooled connection and the router writing to it keeps getting
# exercised (with the fresh connection reset before any reply, which
# must fail over), and repeat the parallel-block tests where a session
# dies under its running job (which must end canceled), where a script
# mutates the list another script's job was started on (which the job
# must never read), and where a ring mutates an argument that another
# item of its list aliases (which no other worker may see), together
# with the chunk-loop contract every parallel job shares (the workers
# and mapreduce TestChunkContract legs: lowest failure reported, cancel
# stops claims, an element's error outranks a cancel) and the MapReduce
# engine's cancel test (TestRunStopsClaimingOnceCanceled).
# Those parallel-block tests get a line of their own: their busy workers
# would load the host under the timing-sensitive router tests.
# Then give the six differential fuzzers — compiled-vs-interpreted
# rings, lowered-vs-tree-walked scripts, the server's request envelope
# scanner against encoding/json, the server's reply encoder against
# json.MarshalIndent, the router's forwarder against net/http's
# Transport, and the .sblk reader against the rune-slice reader it
# replaced — a short burst, and finish with the deterministic-seed
# cross-tier stress soak.
check:
	$(GO) vet ./...
	$(GO) test -race -shuffle=on ./internal/workers/... ./internal/mapreduce/... \
		./internal/dist/... ./internal/interp/... ./internal/compile/... \
		./internal/core/... ./internal/vm/... ./internal/progcache/... \
		./internal/runtime/... ./internal/server/... ./internal/obs/... \
		./internal/shard/... ./internal/evo/... ./internal/value/... \
		./internal/ingest/... ./internal/blocks/...
	$(GO) test -race -count=10 -run 'E2EFailover|KillDuringTraffic|IdleClose|LongReplyRelayed|ClientGoneMidForward|ConnectionCloseNotReused|ClientBytesNeverReachTheWire|FreshResetBeforeRead' ./internal/shard
	$(GO) test -race -count=10 -run 'ParkedSessionHonoursDeadline|ParallelBlocksShipTheirList|ParallelBlocksShipEachItemApart|ChunkContract|RunStopsClaimingOnceCanceled' \
		./internal/runtime ./internal/workers ./internal/mapreduce
	$(GO) test -run '^$$' -fuzz FuzzCompileRing -fuzztime 5s ./internal/compile/
	$(GO) test -run '^$$' -fuzz FuzzLowerProject -fuzztime 5s ./internal/vm/
	$(GO) test -run '^$$' -fuzz FuzzRequestEnvelope -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzReplyMatchesMarshalIndent -fuzztime 5s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzForwardReply -fuzztime 5s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzReaderMatchesReference -fuzztime 5s ./internal/parse/
	$(MAKE) stress

# stress runs the evolutionary cross-tier differential engine
# (docs/TESTING.md) as a fixed-seed soak: every evolved program executes
# under all four tiers (tree, vm, vm with observability off, live
# session + cache replay) and any divergence is shrunk, persisted to the
# committed corpus, and fails the build. The fixed seed makes CI runs reproducible.
stress:
	$(GO) run ./cmd/snapstress -seed 1 -duration 60s -min-programs 1000 \
		-corpus internal/evo/corpus -q

# fuzz runs the compiler's differential fuzzer open-ended (ctrl-C to stop).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCompileRing ./internal/compile/

# serve-smoke boots snapserved in its self-test mode: serve on an
# ephemeral port, run a sequential and a parallelMap project, then scrape
# /metrics and fail on any series outside the snapserved_*/engine_*
# catalog or any duplicated (name, labels) pair.
serve-smoke:
	$(GO) run ./cmd/snapserved -smoke

# shard-smoke boots snapshardd in its self-test mode: two real in-process
# snapserved backends, repeated traffic through the router, a scripted
# graceful kill of one backend (the survivors must absorb everything and
# the ring must eject the dead one), then the same /metrics scrape
# validation as serve-smoke with engine_shard_* required present.
shard-smoke:
	$(GO) run ./cmd/snapshardd -smoke

# bench runs the paper's E-series experiment benchmarks with allocation
# stats and records the results as JSON (benchmark name -> ns/op,
# allocs/op, and any custom metrics) for before/after comparisons.
# The series runs three full passes and benchjson keeps the fastest run
# of each benchmark. Three separate passes — not -count 3 — because a
# shared machine's slow phases last minutes: consecutive repetitions all
# land in the same phase, while passes spread each benchmark's samples
# far enough apart that one usually hits a quiet window.
bench:
	( $(GO) test -bench 'BenchmarkE[0-9]' -benchmem -run '^$$' . && \
	  $(GO) test -bench 'BenchmarkE[0-9]' -benchmem -run '^$$' . && \
	  $(GO) test -bench 'BenchmarkE[0-9]' -benchmem -run '^$$' . ) \
		| $(GO) run ./cmd/benchjson > BENCH_PR10.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-diff compares the current benchmark record against the previous
# PR's committed baseline and fails on any >20% ns/op or allocs/op
# regression — for this PR, the proof that the columnar-list wins on the
# data-bound paths (E6 climate) cost the script-bound and parallel paths
# nothing.
bench-diff:
	$(GO) run ./cmd/benchjson -baseline BENCH_PR8.json -current BENCH_PR10.json

# Regenerate every paper figure/listing/result as text.
repro:
	$(GO) run ./cmd/snapbench

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/snaplint projects/concession.sblk
	$(GO) run ./cmd/snaplint projects/concession-parallel.xml

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

cover:
	$(GO) test -cover ./internal/...

clean:
	rm -f test_output.txt bench_output.txt
