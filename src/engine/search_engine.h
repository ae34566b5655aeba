// Concurrent query-serving engine over a sharded IVF+RaBitQ index -- the
// layer the paper's evaluation protocol (one thread, one query at a time)
// leaves out. Layering: linalg -> quant/core -> cluster/index -> engine ->
// bench/examples.
//
// What it does:
//   * Batched execution: a batch's (query x shard) work cells are split into
//     one contiguous chunk per pool worker. Each chunk rotates its own block
//     of query rows (Rotator::InverseRotateRows, a tiled matrix-matrix
//     product instead of one gemv per query) and scans its cells with the
//     running worker's scratch, so the hot path stops allocating once the
//     buffers reach steady state. The worker that finishes a query's last
//     cell merges that query's shard results and completes it; there is no
//     batch-wide join.
//   * Overlapping batches: several batches may be in flight on the pool at
//     once. Per-batch state lives in a context reused from a small free
//     list, so concurrent SearchBatch callers and async batches never wait
//     for each other's batch to end.
//   * Work-conserving async serving (SubmitAsync): producers enqueue single
//     queries and get futures. A scheduler thread waits until a pool worker
//     is free, takes whatever is queued at that moment (up to max_batch),
//     hands the batch to the pool and goes straight back to the queue. A
//     lone query is never held back waiting for company; under load,
//     batches form from requests that piled up while the workers were busy.
//     The backlog stays in the bounded RequestQueue, never in the pool.
//   * Read/write coordination, PER SHARD: every batch executes against a
//     consistent snapshot (shared lock on every shard for the batch's
//     duration); Insert/Delete/Update lock only the ONE shard their id
//     hashes to -- exclusively for the index mutation, plus that shard's
//     writer mutex for the logical span. Mutations to different shards no
//     longer contend, which is the write-scaling point of sharding. The
//     shard lock is phase-fair (FairSharedMutex), so overlapping batches
//     cannot starve a writer.
//   * Background compaction: when a mutation pushes a list's tombstone
//     ratio past EngineConfig::compaction_tombstone_ratio, a maintenance
//     thread rebuilds that (shard, list). The rebuild (plan) runs under the
//     shard's SHARED lock -- queries keep flowing -- and only the
//     O(live-entries) swap (commit) takes the shard's exclusive lock.
//   * Determinism: each query is searched with seeds derived from
//     (engine seed, ticket) -- or an explicit caller seed -- and per-list
//     rounding seeds derive from (query seed, list id), so results are
//     bit-identical to the sequential reference no matter how many threads
//     or shards serve the batch or how requests interleave.
//
// Thread safety: every public method may be called from any thread.

#ifndef RABITQ_ENGINE_SEARCH_ENGINE_H_
#define RABITQ_ENGINE_SEARCH_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine_stats.h"
#include "engine/request_queue.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/aligned_buffer.h"
#include "util/shared_mutex.h"
#include "util/thread_pool.h"

namespace rabitq {

struct EngineConfig {
  /// Worker threads for batch execution; 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// Async scheduler: largest batch taken from the submission queue in one
  /// pop (a pop never waits for a batch to fill).
  std::size_t max_batch = 32;
  /// Bounded admission: SubmitAsync fails fast with kResourceExhausted once
  /// this many requests are queued, so a flood of producers cannot grow the
  /// backlog (and its memory) without limit. 0 means unbounded -- the
  /// pre-robustness behavior.
  std::size_t max_queue_depth = 16384;
  /// Base of the per-query seed derivation (see QuerySeed).
  std::uint64_t seed = 0x5EEDC0FFEE5EEDULL;
  /// Default search parameters for SubmitAsync overloads without params.
  IvfSearchParams default_params;
  /// Background compaction trigger: a list is rebuilt once its tombstone
  /// ratio (dead entries / entries) reaches this. <= 0 disables the
  /// background pass (CompactNow still works).
  float compaction_tombstone_ratio = 0.25f;
  /// Lists with fewer tombstones than this are never auto-compacted
  /// (rebuilding a 3-entry list over one tombstone is churn, not progress).
  std::size_t compaction_min_dead = 32;
  /// Per-stage trace sampling: one query in `trace_sample_period` records
  /// spans (queue wait, preprocess, probe order, scan, re-rank, merge) into
  /// the per-stage latency histograms. The decision is a pure function of
  /// the query's resolved seed (obs::SampleTrace), so the traced subset is
  /// deterministic across runs and shard counts. 0 disables tracing;
  /// 1 traces every query. Untraced queries pay one seed mix and a few
  /// null checks -- no clock reads.
  std::uint32_t trace_sample_period = 64;
  /// Optional per-query trace dump: invoked once a batch's last query has
  /// finished, for every SAMPLED query of that batch, with (resolved query
  /// seed, completed trace). Always called from several threads at once --
  /// the pool workers that finish overlapping batches -- so it must be
  /// thread-safe. Runs with no engine locks held, but occupies a serving
  /// worker while it runs: keep it cheap.
  std::function<void(std::uint64_t, const obs::QueryTrace&)> trace_sink;
};

/// Owns a built (possibly sharded) index and serves k-NN concurrently.
class SearchEngine {
 public:
  /// Takes ownership of a BUILT sharded index (an engine serving an empty
  /// index is a config error surfaced by the first search).
  explicit SearchEngine(ShardedIndex index, const EngineConfig& config = {});

  /// Convenience: wraps a single IvfRabitqIndex as a 1-shard configuration.
  explicit SearchEngine(IvfRabitqIndex index, const EngineConfig& config = {});

  ~SearchEngine();

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// The owned index. Reading it while a writer (Insert/Delete/Update or a
  /// background compaction commit) runs on another thread races; quiesce
  /// writers (or take no writers by construction) before touching index
  /// internals directly. Serving-path accessors (Stats, size) are safe.
  const ShardedIndex& index() const { return index_; }

  std::size_t num_threads() const { return pool_.num_threads(); }
  std::size_t num_shards() const { return index_.num_shards(); }
  /// Cached at construction: the serving paths read it lock-free, and even
  /// an immutable-in-practice index_.dim() would race with Insert's move
  /// of the underlying storage.
  std::size_t dim() const { return dim_; }
  /// Distance metric of the served index (cached at construction, same
  /// reasoning as dim()).
  Metric metric() const { return metric_; }
  /// Bits per dimension of the served index's codes (cached at
  /// construction, same reasoning as dim()). Widths > 1 run the two-stage
  /// error-bound scan -- see EngineStatsSnapshot::codes_refined.
  std::size_t bits_per_dim() const { return bits_per_dim_; }
  /// Current number of ids ever assigned (racy snapshot, safe anytime).
  std::size_t size() const;
  /// Current number of live (non-deleted) vectors (racy snapshot).
  std::size_t live_size() const;
  /// Index version: starts at 0, bumped by every successful mutation
  /// (Insert/Delete/Update and each committed list compaction).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Deterministic per-query seed stream: SplitMix64 of (base, ticket).
  /// Query i of a request batch without explicit seeds uses
  /// QuerySeed(config.seed, i); the parity tests replay the same seeds
  /// through the sequential reference.
  static std::uint64_t QuerySeed(std::uint64_t base, std::uint64_t ticket);

  /// Synchronous batched search. Runs the same batch path as SubmitAsync's
  /// scheduler and blocks until its own batch completes; concurrent callers
  /// (and async batches) overlap on the pool instead of queueing behind
  /// each other. Single-query Search and the deprecated raw-pointer shims
  /// funnel into it. responses->at(i) receives query i's outcome
  /// (GLOBAL ids); a failed query reports through its own response.status
  /// while the rest of the batch still executes, and the first per-query
  /// error is also returned. Each request's options.seed is used verbatim
  /// when set, else QuerySeed(config.seed, i). Filters ride in the options
  /// and are pushed into the per-shard scans (see ShardedIndex).
  Status SearchBatch(const SearchRequest* requests, std::size_t num_requests,
                     std::vector<SearchResponse>* responses);

  /// Synchronous single query: a batch of one.
  SearchResponse Search(const SearchRequest& request);

  /// Enqueues one query for the async scheduler and returns a future
  /// fulfilled as soon as the query completes. The vector is copied; the
  /// options (including the filter VIEW -- keep its bitmap/context alive
  /// until the future resolves) ride along. options.seed unset draws the
  /// next ticket from the engine's auto-seed stream; set, it is used
  /// verbatim, making the result reproducible independently of submission
  /// interleaving. Overload behavior: with the queue at max_queue_depth the
  /// future resolves immediately with kResourceExhausted; a request whose
  /// deadline (options.deadline / options.timeout_us, resolved against the
  /// submission time) expires while queued is shed unexecuted and resolves
  /// with kDeadlineExceeded.
  std::future<SearchResponse> SubmitAsync(const SearchRequest& request);

  /// Requests admitted by SubmitAsync and still waiting for a free worker
  /// (racy snapshot).
  std::size_t queue_depth() const { return queue_.size(); }

  /// Graceful shutdown: closes admission (subsequent SubmitAsync resolves
  /// with kFailedPrecondition), serves or sheds every already-accepted
  /// request, joins the scheduler, waits for every batch in flight, and
  /// stops the background compactor.
  /// Idempotent; the destructor calls it. Synchronous entry points
  /// (SearchBatch / Search) keep working after a drain.
  void Drain();

#ifndef RABITQ_NO_DEPRECATED
  /// Legacy overload ladder, now thin shims over the request-based core
  /// (definitions in search_compat.h; hidden by RABITQ_NO_DEPRECATED).
  RABITQ_DEPRECATED("use SearchBatch(const SearchRequest*, ...)")
  Status SearchBatch(const float* queries, std::size_t num_queries,
                     const IvfSearchParams& params, std::uint64_t seed_base,
                     std::vector<std::vector<Neighbor>>* results,
                     IvfSearchStats* agg = nullptr);

  RABITQ_DEPRECATED("use SearchBatch(const SearchRequest*, ...)")
  Status SearchBatch(const float* queries, std::size_t num_queries,
                     const IvfSearchParams& params,
                     std::vector<std::vector<Neighbor>>* results,
                     IvfSearchStats* agg = nullptr);

  RABITQ_DEPRECATED("use SubmitAsync(const SearchRequest&)")
  std::future<SearchResponse> SubmitAsync(const float* query,
                                          const IvfSearchParams& params);
  RABITQ_DEPRECATED("use SubmitAsync(const SearchRequest&) with options.seed")
  std::future<SearchResponse> SubmitAsync(const float* query,
                                          const IvfSearchParams& params,
                                          std::uint64_t seed);
  RABITQ_DEPRECATED("use SubmitAsync(const SearchRequest&)")
  std::future<SearchResponse> SubmitAsync(const float* query);
#endif  // RABITQ_NO_DEPRECATED

  /// Appends one vector (copied): reserves the next global id, then
  /// excludes search batches from ONLY the owning shard for the duration of
  /// the underlying append. Queries batched before and after the insert see
  /// consistent pre-/post-insert snapshots respectively.
  Status Insert(const float* vec, std::uint32_t* id_out = nullptr);

  /// Tombstones `id`; it stops appearing in results from the next batch on.
  /// May trigger a background compaction of the affected (shard, list).
  Status Delete(std::uint32_t id);

  /// Replaces the vector of live `id` in place (same id and shard).
  /// May trigger a background compaction of the list left behind.
  Status Update(std::uint32_t id, const float* vec);

  /// Synchronously compacts every list of every shard that has any
  /// tombstone, regardless of the configured trigger. Queries keep flowing
  /// during the rebuilds; each list swap briefly excludes them from its
  /// shard. Returns the first error.
  Status CompactNow();

  EngineStatsSnapshot Stats() const;
  /// Zeroes EVERY registry metric (engine counters, per-stage histograms,
  /// compaction metrics) and restarts the QPS window -- call after warmup
  /// for rates over the serving window only.
  void ResetStats() { stats_.Reset(); }

  /// Full observability snapshot: every registry metric (engine counters,
  /// per-stage trace histograms rabitq_stage_*_us, estimator health,
  /// compaction metrics) with the lifecycle/health gauges refreshed first.
  /// Feed it to obs::ExportJson / obs::ExportPrometheus.
  obs::MetricsSnapshot SnapshotMetrics() const;

  /// The engine's metric registry: extension point for embedding callers
  /// that want to register their own metrics into the same export.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// Writes a snapshot of the owned index to `path` (ShardedIndex::Save:
  /// crash-safe, two-phase, manifest-last). Every shard's writer mutex is
  /// held for the write, so the snapshot is a consistent cut: mutations and
  /// compactions wait, queries keep flowing (even past a waiting writer).
  Status SaveSnapshot(const std::string& path) const;

 private:
  /// Per-shard coordination: readers (batches) share index_mutex; mutators
  /// take it exclusively for the index mutation and ALSO hold writer_mutex
  /// for their full logical span -- serializing writers of the SAME shard
  /// against each other and pinning list state between a compaction's plan
  /// (shared lock only) and commit (exclusive lock). Writers of different
  /// shards run fully in parallel. Lock order: writer_mutex before
  /// index_mutex; shard locks in ascending shard order.
  struct ShardSync {
    mutable FairSharedMutex index_mutex;
    mutable std::mutex writer_mutex;  // SaveSnapshot (const) takes it too
  };

  /// Per-call state of one batch in flight: its queries and options, the
  /// (query x shard) cell buffers, per-query countdowns, outputs and traces.
  /// Reused from a free list (defined in the .cpp).
  struct Batch;

  /// Per-pool-worker workspace, indexed by ThreadPool::WorkerIndex(): the
  /// cell scan and merge scratch, plus the rotated rows of the chunk the
  /// worker is running.
  struct WorkerScratch {
    ShardedSearchScratch search;
    AlignedVector<float> rotated;
  };

  /// A batch context from the free list (or a new one); Release returns it.
  Batch* AcquireBatch();
  void ReleaseBatch(Batch* batch);

  /// Starts `batch` (its n, sources, params and seeds filled in): gathers
  /// and validates the queries, takes a shared lock on every shard, and
  /// hands one chunk of contiguous (query x shard) cells per pool worker to
  /// the pool. Returns without waiting; the batch completes on the workers
  /// (async: each promise is fulfilled; sync: SearchBatch's wait returns).
  void Dispatch(Batch* batch);
  /// Pool task: rotates chunk `c`'s query rows, scans its cells, and merges
  /// every query whose last cell it ran.
  void RunChunk(Batch* batch, std::size_t c);
  /// Merges query q's shard cells and completes it; the call that completes
  /// the batch's last query also ends the batch (unlocks the shards,
  /// records stats and traces, wakes or recycles the batch).
  void FinishQuery(Batch* batch, std::size_t q, ShardedSearchScratch* scratch);
  void FinishBatch(Batch* batch);

  void SchedulerLoop();
  void CompactorLoop();
  /// O(1) trigger check for the one list a mutation just touched. Must be
  /// called under sync_[shard]->writer_mutex.
  bool ListNeedsCompaction(std::uint32_t shard, std::uint32_t list_id) const;
  /// Wakes the compactor to re-scan for over-threshold lists.
  void KickCompactor();
  /// Plan+commit every (shard, list) selected by (min_ratio, min_dead).
  /// Caller must hold NO shard locks.
  Status RunCompactions(float min_ratio, std::size_t min_dead);

  ShardedIndex index_;
  std::size_t dim_;
  Metric metric_;
  std::size_t bits_per_dim_;
  EngineConfig config_;
  ThreadPool pool_;

  std::vector<std::unique_ptr<ShardSync>> sync_;  // one per shard
  std::atomic<std::uint64_t> epoch_{0};

  std::vector<WorkerScratch> worker_scratch_;  // one per pool worker

  // Batch contexts: every one ever created (owned), and the idle ones.
  std::mutex batches_mutex_;
  std::vector<std::unique_ptr<Batch>> batches_;
  std::vector<Batch*> free_batches_;

  // Dispatch slots: chunks handed to the pool and not yet finished. The
  // scheduler pops the queue only while this is below the worker count;
  // Drain waits for it to reach zero.
  std::mutex slots_mutex_;
  std::condition_variable slots_cv_;
  std::size_t chunks_in_flight_ = 0;

  // Observability. metrics_ is declared before stats_ (the collector
  // resolves its metrics out of it at construction).
  obs::MetricsRegistry metrics_;
  obs::Histogram* stage_hist_[obs::kNumStages];
  obs::Histogram* compaction_pass_seconds_;
  obs::Counter* compaction_codes_reclaimed_;
  obs::Counter* traced_queries_;
  obs::Gauge* gauge_live_vectors_;
  obs::Gauge* gauge_tombstones_;
  obs::Gauge* gauge_epoch_;
  obs::Gauge* gauge_shards_;
  obs::Gauge* gauge_violation_rate_;
  obs::Gauge* gauge_signed_err_mean_;
  obs::Gauge* gauge_tightness_mean_;

  EngineStatsCollector stats_;

  // Async serving.
  RequestQueue queue_;
  std::atomic<std::uint64_t> next_ticket_{0};
  std::thread scheduler_;

  // Background compaction.
  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  bool compactor_kicked_ = false;
  bool compactor_stop_ = false;
  std::thread compactor_;
};

}  // namespace rabitq

// Deprecated-overload shim definitions (see search_compat.h for the scheme).
#define RABITQ_SEARCH_COMPAT_HAVE_ENGINE 1
#include "index/search_compat.h"

#endif  // RABITQ_ENGINE_SEARCH_ENGINE_H_
