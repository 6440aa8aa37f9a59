package obs

// This file is the engine metric catalog: every series the instrumented
// layers emit, registered once into Default at init. Keeping the catalog
// in one place (instead of scattering registrations across packages)
// makes the full series set auditable — docs/OBSERVABILITY.md mirrors
// this file — and lets the smoke scrape reject unknown series by prefix.
//
// Naming: everything engine-side is `engine_<layer>_<what>[_total]`.
// Bucket boundaries are fixed at registration (no dynamic cardinality):
//
//	DurationBuckets  1µs … 10s, decade steps — covers a compiled-kernel
//	                 chunk (~tens of µs) through a governed session (~s).
//	StepBuckets      1e2 … 1e8 evaluator steps, decade steps.
//	SkewBuckets      1 … 64× mean: 1 means perfectly balanced shuffle
//	                 buckets; ≥8 means one key dominates the reduce.
var (
	DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
	StepBuckets     = []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
	SkewBuckets     = []float64{1, 1.5, 2, 4, 8, 16, 64}
)

// CompileReasons is the fixed refusal-reason label set of
// engine_compile_fallbacks_total (anything else lands in "other").
var CompileReasons = []string{
	"empty", "env", "script-body", "ring-value",
	"implicit-slot", "arity", "unsupported-op", "unsupported-node",
}

// The worker pool (internal/workers).
var (
	PoolJobs = Default.NewCounterVec("engine_pool_jobs_total",
		"Parallel pool jobs started, by operation.", "op", "map", "reduce")
	PoolChunks = Default.NewCounter("engine_pool_chunks_total",
		"Chunks dispatched to pool executors.")
	PoolChunkSeconds = Default.NewHistogram("engine_pool_chunk_seconds",
		"Per-chunk handler run time.", DurationBuckets)
	PoolJobSeconds = Default.NewHistogram("engine_pool_job_seconds",
		"Parallel job wall time, start to resolve.", DurationBuckets)
	PoolQueueWaitSeconds = Default.NewHistogram("engine_pool_queue_wait_seconds",
		"Time a submitted task waited before a pool worker (or spill goroutine) started it.", DurationBuckets)
	PoolCascadeEnlists = Default.NewCounter("engine_pool_cascade_enlists_total",
		"Executors enlisted by the cascading spawn beyond the first, across dynamic jobs.")
	PoolClaims = Default.NewCounter("engine_pool_claims_total",
		"Dynamic-assignment chunk claims that found work.")
	PoolClaimsEmpty = Default.NewCounter("engine_pool_claims_empty_total",
		"Dynamic-assignment claims that found the shared queue drained.")
)

// The ring-compiler tier (internal/compile).
var (
	CompileHits = Default.NewCounter("engine_compile_hits_total",
		"Shipped rings lowered to compiled Go kernels.")
	CompileFallbacks = Default.NewCounterVec("engine_compile_fallbacks_total",
		"Shipped rings refused by the compiler (interpreter tier), by refusal reason.",
		"reason", CompileReasons...)
)

// The value layer's columnar lists (internal/value). Lists count the
// homogeneous lists built with a struct-of-arrays column backing; upgrades
// count the columnar lists that fell back to the boxed representation when
// a mutation introduced a non-conforming element.
var (
	ListColumnarLists = Default.NewCounter("engine_list_columnar_lists_total",
		"Homogeneous lists constructed with a columnar (struct-of-arrays) backing.")
	ListColumnarUpgrades = Default.NewCounter("engine_list_columnar_upgrades_total",
		"Columnar lists upgraded to the boxed representation by a non-conforming mutation.")
)

// The MapReduce engine (internal/mapreduce).
var (
	MRRuns = Default.NewCounter("engine_mr_runs_total",
		"MapReduce engine runs.")
	MRPhaseSeconds = Default.NewHistogramVec("engine_mr_phase_seconds",
		"MapReduce phase durations.", "phase", []string{"map", "shuffle", "reduce"}, DurationBuckets)
	MRBucketSkew = Default.NewHistogram("engine_mr_bucket_skew",
		"Shuffle skew per run: largest key group over mean group size.", SkewBuckets)
)

// The content-addressed program cache (internal/progcache). The "tier"
// label is "project" (parsed+linted request bodies) or "ring" (memoized
// compile.Ring outcomes and mapReduce kernel sets). Counters are bumped
// while Enabled(); the bytes gauge tracks residency unconditionally (one
// atomic store per insert).
var (
	ProgcacheHits = Default.NewCounterVec("engine_progcache_hits_total",
		"Program-cache gets served by a resident entry, by tier.",
		"tier", "project", "ring")
	ProgcacheMisses = Default.NewCounterVec("engine_progcache_misses_total",
		"Program-cache gets that paid the load (parse+lint or ring compile), by tier.",
		"tier", "project", "ring")
	ProgcacheSharedLoads = Default.NewCounterVec("engine_progcache_shared_loads_total",
		"Program-cache gets that waited on and shared another caller's in-flight load (singleflight), by tier.",
		"tier", "project", "ring")
	ProgcacheEvictions = Default.NewCounterVec("engine_progcache_evictions_total",
		"Program-cache entries evicted by the byte budget, by tier.",
		"tier", "project", "ring")
	ProgcacheBytes = Default.NewGaugeVec("engine_progcache_bytes",
		"Resident program-cache bytes, by tier.",
		"tier", "project", "ring")
)

// The flat bytecode machine (internal/vm). Ops count executed bytecode
// instructions; yields count cooperative hand-backs from bytecode;
// tree_calls count CallTree splices into the tree-walking evaluator
// (the coverage gap, the bytecode analog of the compile tier's
// engine_compile_fallbacks_total{reason="script-body"} class); lowerings
// count scripts compiled to bytecode (cache misses, not executions).
var (
	VMOps = Default.NewCounter("engine_vm_ops_total",
		"Bytecode operations executed by the flat VM.")
	VMYields = Default.NewCounter("engine_vm_yields_total",
		"Cooperative yields taken while executing bytecode.")
	VMTreeCalls = Default.NewCounter("engine_vm_tree_calls_total",
		"Un-lowerable subtrees spliced from bytecode through the tree-walker.")
	VMLowerings = Default.NewCounter("engine_vm_lowerings_total",
		"Whole scripts lowered to bytecode programs.")
)

// ShardBackendIDs is the fixed backend-slot label set of the per-backend
// shard-router series. Backends are identified by their position in the
// router's -backends list; routers fronting more than eight backends
// spill the excess into the implicit "other" slot (the always-on
// shard.Router.Stats snapshot keeps exact per-backend totals regardless).
var ShardBackendIDs = []string{"0", "1", "2", "3", "4", "5", "6", "7"}

// The shard router (internal/shard, cmd/snapshardd).
var (
	ShardRequests = Default.NewCounterVec("engine_shard_requests_total",
		"Requests forwarded to a backend, by backend slot.",
		"backend", ShardBackendIDs...)
	ShardRetries = Default.NewCounter("engine_shard_retries_total",
		"Forward attempts retried after an attempt the backend never served.")
	ShardEjections = Default.NewCounterVec("engine_shard_ejections_total",
		"Backends ejected from the ring by health checking, by backend slot.",
		"backend", ShardBackendIDs...)
	ShardReadmissions = Default.NewCounterVec("engine_shard_readmissions_total",
		"Ejected backends re-admitted to the ring after recovering, by backend slot.",
		"backend", ShardBackendIDs...)
	ShardRingRebuilds = Default.NewCounter("engine_shard_ring_rebuilds_total",
		"Consistent-hash ring rebuilds after membership changes.")
	ShardRejected = Default.NewCounter("engine_shard_rejected_total",
		"Requests rejected by cluster-wide admission control (429).")
	ShardInflight = Default.NewGauge("engine_shard_inflight",
		"Requests in flight through the router, cluster-wide.")
)

// Governed sessions (internal/runtime).
var (
	SessionsTotal = Default.NewCounter("engine_sessions_total",
		"Governed sessions finished.")
	SessionSteps = Default.NewHistogram("engine_session_steps",
		"Evaluator steps per finished session.", StepBuckets)
	SessionSlackSeconds = Default.NewHistogram("engine_session_deadline_slack_seconds",
		"Unused wall-clock budget when a deadlined session ended.", DurationBuckets)
)
