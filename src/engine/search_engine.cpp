#include "engine/search_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <shared_mutex>
#include <utility>

#include "linalg/vector_ops.h"
#include "util/failpoint.h"
#include "util/prng.h"

namespace rabitq {

namespace {

IvfSearchStats SumStats(const IvfSearchStats* stats, std::size_t n) {
  IvfSearchStats agg;
  for (std::size_t i = 0; i < n; ++i) {
    agg.codes_estimated += stats[i].codes_estimated;
    agg.candidates_reranked += stats[i].candidates_reranked;
    agg.lists_probed += stats[i].lists_probed;
    agg.codes_filtered += stats[i].codes_filtered;
    agg.codes_refined += stats[i].codes_refined;
    agg.rerank_bound_violations += stats[i].rerank_bound_violations;
    agg.rerank_health_samples += stats[i].rerank_health_samples;
    agg.rerank_signed_err_sum += stats[i].rerank_signed_err_sum;
    agg.rerank_tightness_sum += stats[i].rerank_tightness_sum;
  }
  return agg;
}

}  // namespace

SearchEngine::SearchEngine(ShardedIndex index, const EngineConfig& config)
    : index_(std::move(index)),
      dim_(index_.dim()),
      metric_(index_.metric()),
      bits_per_dim_(index_.encoder().config().bits_per_dim),
      config_(config),
      pool_(config.num_threads),
      worker_scratch_(pool_.num_threads()),
      stats_(&metrics_),
      queue_(config.max_queue_depth) {
  for (int s = 0; s < obs::kNumStages; ++s) {
    stage_hist_[s] = metrics_.GetHistogram(
        std::string("rabitq_stage_") +
            obs::StageName(static_cast<obs::Stage>(s)) + "_us",
        std::string("Per-query ") +
            obs::StageName(static_cast<obs::Stage>(s)) +
            " time in microseconds (sampled traces)");
  }
  compaction_pass_seconds_ = metrics_.GetHistogram(
      "rabitq_compaction_pass_seconds",
      "Wall time of background/explicit compaction passes that did work");
  compaction_codes_reclaimed_ = metrics_.GetCounter(
      "rabitq_compaction_codes_reclaimed_total",
      "Tombstoned code entries dropped by list compactions");
  traced_queries_ = metrics_.GetCounter("rabitq_traced_queries_total",
                                        "Queries with a sampled trace");
  gauge_live_vectors_ =
      metrics_.GetGauge("rabitq_live_vectors", "Live (non-deleted) vectors");
  gauge_tombstones_ = metrics_.GetGauge(
      "rabitq_tombstones", "Tombstoned list entries awaiting compaction");
  gauge_epoch_ = metrics_.GetGauge("rabitq_epoch", "Index mutation epoch");
  gauge_shards_ = metrics_.GetGauge("rabitq_num_shards", "Index shards");
  gauge_violation_rate_ = metrics_.GetGauge(
      "rabitq_eps0_violation_rate",
      "Observed share of re-ranked candidates violating the eps0 bound");
  gauge_signed_err_mean_ = metrics_.GetGauge(
      "rabitq_rerank_signed_err_mean",
      "Mean signed relative error of the estimate at re-rank");
  gauge_tightness_mean_ = metrics_.GetGauge(
      "rabitq_rerank_tightness_mean",
      "Mean lower_bound / exact distance ratio at re-rank");
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    sync_.push_back(std::make_unique<ShardSync>());
  }
  scheduler_ = std::thread([this] { SchedulerLoop(); });
  compactor_ = std::thread([this] { CompactorLoop(); });
}

SearchEngine::SearchEngine(IvfRabitqIndex index, const EngineConfig& config)
    : SearchEngine(ShardedIndex::FromSingle(std::move(index)), config) {}

SearchEngine::~SearchEngine() { Drain(); }

void SearchEngine::Drain() {
  queue_.Close();  // PopBatch drains what was accepted, then returns false
  if (scheduler_.joinable()) scheduler_.join();
  {
    // The scheduler hands batches off without waiting for them.
    std::unique_lock<std::mutex> lock(slots_mutex_);
    slots_cv_.wait(lock, [this] { return chunks_in_flight_ == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_stop_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

std::size_t SearchEngine::size() const { return index_.size(); }

std::size_t SearchEngine::live_size() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<FairSharedMutex> lock(sync_[s]->index_mutex);
    live += index_.shard(s).live_size();
  }
  return live;
}

std::uint64_t SearchEngine::QuerySeed(std::uint64_t base,
                                      std::uint64_t ticket) {
  return MixSeed(base, ticket);
}

struct SearchEngine::Batch {
  std::size_t n = 0;
  bool async = false;
  // Inputs. sources[q] / params[q] point at the caller's request (sync) or
  // at the queued copy in requests[q] (async); seeds are resolved.
  std::vector<QueuedQuery> requests;          // async: queries + promises
  std::vector<IvfSearchParams> owned_params;  // sync: deadline-resolved
  std::vector<std::size_t> slots;             // sync: request index of q
  std::vector<const float*> sources;
  std::vector<const IvfSearchParams*> params;
  std::vector<std::uint64_t> seeds;
  std::chrono::steady_clock::time_point start;  // dispatch time

  // Gathered query rows (unit-normalized under cosine) -- the vector every
  // shard scan, exact re-rank and merge of the query scores against -- and
  // each query's validation outcome.
  Matrix queries;
  std::vector<Status> query_status;

  // (query x shard) cells, laid out q * num_shards + s; chunk c covers
  // cells [c * cells_per_chunk, (c + 1) * cells_per_chunk).
  std::size_t cells_per_chunk = 0;
  std::vector<Status> cell_status;
  std::vector<std::vector<Neighbor>> cell_results;
  std::vector<IvfSearchStats> cell_stats;
  std::unique_ptr<std::atomic<std::uint32_t>[]> cells_left;  // per query
  std::atomic<std::size_t> queries_left{0};

  // Outputs. responses[q] is moved into the promise on the async path;
  // stats/failed/latency_us keep what the batch-level record needs.
  std::vector<SearchResponse> responses;
  std::vector<IvfSearchStats> stats;
  std::vector<std::uint8_t> failed;
  std::vector<double> latency_us;

  // Sampled traces: traces[q] is query q's trace or null. QueryTrace holds
  // atomics, so the storage is a raw array grown to the largest batch.
  std::unique_ptr<obs::QueryTrace[]> trace_storage;
  std::vector<obs::QueryTrace*> traces;
  std::uint64_t gather_ns = 0;  // per-query share of the gather
  std::size_t capacity = 0;     // queries cells_left / trace_storage hold

  // Sync completion: set by the worker that finishes the batch.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;

  void Reserve(std::size_t queries_needed) {
    if (queries_needed <= capacity) return;
    cells_left = std::make_unique<std::atomic<std::uint32_t>[]>(queries_needed);
    trace_storage = std::make_unique<obs::QueryTrace[]>(queries_needed);
    capacity = queries_needed;
  }
};

SearchEngine::Batch* SearchEngine::AcquireBatch() {
  std::lock_guard<std::mutex> lock(batches_mutex_);
  if (free_batches_.empty()) {
    batches_.push_back(std::make_unique<Batch>());
    return batches_.back().get();
  }
  Batch* batch = free_batches_.back();
  free_batches_.pop_back();
  return batch;
}

void SearchEngine::ReleaseBatch(Batch* batch) {
  batch->requests.clear();  // promises were moved out; drop the queries
  std::lock_guard<std::mutex> lock(batches_mutex_);
  free_batches_.push_back(batch);
}

void SearchEngine::Dispatch(Batch* batch) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = batch->n;
  const std::size_t S = index_.num_shards();
  batch->start = Clock::now();
  batch->Reserve(n);
  batch->query_status.assign(n, Status::Ok());
  batch->responses.clear();
  batch->responses.resize(n);
  batch->stats.resize(n);
  batch->failed.resize(n);
  batch->latency_us.resize(n);
  batch->queries_left.store(n);

  // Deterministic trace sampling, decided before any work: a pure function
  // of each query's resolved seed, so the traced subset does not depend on
  // threads, shards or batch composition. traces[q] stays null for
  // untraced queries -- every downstream hook is then one branch, no clock.
  batch->traces.assign(n, nullptr);
  bool any_traced = false;
  if (config_.trace_sample_period > 0) {
    for (std::size_t q = 0; q < n; ++q) {
      if (obs::SampleTrace(batch->seeds[q], config_.trace_sample_period)) {
        batch->trace_storage[q].Clear();
        batch->traces[q] = &batch->trace_storage[q];
        any_traced = true;
      }
    }
  }

  // Gather. Cosine normalizes where it rotates (the index contract for
  // pre-rotated queries). A zero-norm query fails per query, not per batch:
  // its row rotates to zeros harmlessly and its cells skip the scan.
  const Clock::time_point gather_start =
      any_traced ? Clock::now() : Clock::time_point{};
  batch->queries.Reset(n, dim_);
  for (std::size_t q = 0; q < n; ++q) {
    std::copy_n(batch->sources[q], dim_, batch->queries.Row(q));
    if (metric_ == Metric::kCosine &&
        NormalizeInPlace(batch->queries.Row(q), dim_) == 0.0f) {
      batch->query_status[q] =
          Status::InvalidArgument("zero-norm query under cosine metric");
    }
  }
  batch->gather_ns =
      any_traced ? static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - gather_start)
                           .count()) /
                       n
                 : 0;
  // The whole batch runs against one consistent snapshot: a shared lock on
  // every shard (ascending), dropped by the worker that finishes the
  // batch's last query. Mutations wait for the batches holding their shard.
  for (std::size_t s = 0; s < S; ++s) sync_[s]->index_mutex.lock_shared();

  // Scatter: one contiguous chunk of (query x shard) cells per pool worker.
  const std::size_t cells = n * S;
  const std::size_t workers = std::min(pool_.num_threads(), cells);
  batch->cells_per_chunk = (cells + workers - 1) / workers;
  const std::size_t chunks =
      (cells + batch->cells_per_chunk - 1) / batch->cells_per_chunk;
  batch->cell_status.assign(cells, Status::Ok());
  batch->cell_results.resize(cells);
  batch->cell_stats.assign(cells, IvfSearchStats{});
  for (std::size_t q = 0; q < n; ++q) {
    batch->cells_left[q].store(static_cast<std::uint32_t>(S));
  }
  {
    std::lock_guard<std::mutex> lock(slots_mutex_);
    chunks_in_flight_ += chunks;
  }
  // From the first Submit on, the batch belongs to the workers: it may
  // complete and be recycled before this loop ends.
  for (std::size_t c = 0; c < chunks; ++c) {
    pool_.Submit([this, batch, c] { RunChunk(batch, c); });
  }
}

void SearchEngine::RunChunk(Batch* batch, std::size_t c) {
  using Clock = std::chrono::steady_clock;
  const std::size_t S = index_.num_shards();
  const std::size_t begin = c * batch->cells_per_chunk;
  const std::size_t end =
      std::min(begin + batch->cells_per_chunk, batch->n * S);
  WorkerScratch& worker = worker_scratch_[pool_.WorkerIndex()];

  // Rotate the chunk's own block of query rows. A query whose cells span two
  // chunks is rotated by both -- the same bits either way (the rotator's
  // row-by-row contract) -- and its preprocess span is charged by the chunk
  // holding its first cell.
  const Rotator& rotator = index_.encoder().rotator();
  const std::size_t padded = rotator.padded_dim();
  const std::size_t q_begin = begin / S;
  const std::size_t rows = (end - 1) / S + 1 - q_begin;
  if (worker.rotated.size() < rows * padded) {
    worker.rotated.resize(rows * padded);
  }
  bool traced = false;
  for (std::size_t r = 0; r < rows; ++r) {
    traced = traced || batch->traces[q_begin + r] != nullptr;
  }
  const Clock::time_point rotate_start =
      traced ? Clock::now() : Clock::time_point{};
  rotator.InverseRotateRows(batch->queries.Row(q_begin), batch->queries.cols(),
                            rows, worker.rotated.data());
  if (traced) {
    const std::uint64_t rotate_ns =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - rotate_start)
                .count()) /
        rows;
    for (std::size_t q = q_begin; q < q_begin + rows; ++q) {
      if (batch->traces[q] != nullptr && q * S >= begin) {
        batch->traces[q]->AddNanos(obs::Stage::kPreprocess,
                                   rotate_ns + batch->gather_ns);
      }
    }
  }

  IvfSearchScratch& scratch = worker.search.shard_scratch;
  for (std::size_t cell = begin; cell < end; ++cell) {
    const std::size_t q = cell / S;
    if (batch->query_status[q].ok()) {
      // A sampled query's cells may run on several workers; its trace's
      // relaxed atomic accumulators absorb the concurrent span adds.
      scratch.trace = batch->traces[q];
      try {
        batch->cell_status[cell] = index_.SearchShard(
            cell % S, batch->queries.Row(q),
            worker.rotated.data() + (q - q_begin) * padded, *batch->params[q],
            batch->seeds[q], &scratch, &batch->cell_results[cell],
            &batch->cell_stats[cell]);
      } catch (const std::exception& e) {
        // A pool task must not throw (and every cell must count down): the
        // failure becomes this shard's, which the merge excludes.
        batch->cell_status[cell] = Status::Internal(e.what());
      }
      scratch.trace = nullptr;
    }
    // The batch may be finished and recycled inside FinishQuery -- only on
    // the chunk's last cell, since every other cell of the batch is done.
    if (batch->cells_left[q].fetch_sub(1) == 1) {
      FinishQuery(batch, q, &worker.search);
    }
  }

  // Notified under the lock: Drain may destroy the engine as soon as it
  // observes zero.
  std::lock_guard<std::mutex> lock(slots_mutex_);
  --chunks_in_flight_;
  slots_cv_.notify_all();
}

void SearchEngine::FinishQuery(Batch* batch, std::size_t q,
                               ShardedSearchScratch* scratch) {
  const std::size_t S = index_.num_shards();
  SearchResponse& response = batch->responses[q];
  if (!batch->query_status[q].ok()) {
    // Failed validation before the scatter (zero-norm under cosine): no
    // cell ran, nothing to merge.
    response.status = batch->query_status[q];
  } else {
    // Everything else merges with the per-shard statuses, so a failed or
    // out-of-time shard degrades the query instead of failing it (see
    // ShardedIndex::MergeShardResults).
    obs::ScopedSpan merge_span(batch->traces[q], obs::Stage::kMerge);
    ShardMergeInfo info;
    try {
      response.status = index_.MergeShardResults(
          batch->queries.Row(q), *batch->params[q],
          &batch->cell_results[q * S], &batch->cell_stats[q * S], scratch,
          &response.neighbors, &response.stats, &batch->cell_status[q * S],
          &info);
    } catch (const std::exception& e) {
      response.status = Status::Internal(e.what());
      response.neighbors.clear();
    }
    response.partial = info.partial;
    response.shards_ok = info.shards_ok;
    response.shards_failed = info.shards_failed;
  }
  // Async latency runs from submission (queueing included); sync latency
  // from the batch's dispatch.
  const auto since = batch->async ? batch->requests[q].submit_time
                                  : batch->start;
  batch->latency_us[q] = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - since)
                             .count();
  batch->stats[q] = response.stats;
  batch->failed[q] = response.status.ok() ? 0 : 1;
  if (response.status.code() == StatusCode::kDeadlineExceeded) {
    stats_.RecordDeadlineExceeded();
  }
  if (response.partial) stats_.RecordPartialResponse();
  if (response.shards_failed > 0) {
    stats_.RecordShardFailures(response.shards_failed);
  }

  // Take what this call still needs out of the batch BEFORE the countdown:
  // once another worker finishes the last query, the batch is recycled.
  const bool async = batch->async;
  std::promise<SearchResponse> promise;
  SearchResponse reply;
  if (async) {
    promise = std::move(batch->requests[q].promise);
    reply = std::move(response);
  }
  const bool last = batch->queries_left.fetch_sub(1) == 1;
  // The batch's stats are recorded before its last promise resolves, so a
  // caller holding every future of a batch also sees it in Stats().
  if (last) FinishBatch(batch);
  if (async) promise.set_value(std::move(reply));
  if (!last) return;
  if (async) {
    ReleaseBatch(batch);
  } else {
    // Notified under the lock: the waiting SearchBatch recycles the batch
    // as soon as it observes `done`.
    std::lock_guard<std::mutex> lock(batch->done_mutex);
    batch->done = true;
    batch->done_cv.notify_one();
  }
}

void SearchEngine::FinishBatch(Batch* batch) {
  for (const auto& sync : sync_) sync->index_mutex.unlock_shared();
  const std::size_t n = batch->n;
  std::size_t errors = 0;
  for (std::size_t q = 0; q < n; ++q) errors += batch->failed[q];
  stats_.RecordBatch(n, batch->latency_us.data(),
                     SumStats(batch->stats.data(), n), errors);

  // Fold the sampled traces into the per-stage histograms and hand them to
  // the optional sink, with the shard locks already released. Queue wait
  // (submit -> dispatch) only exists on the async path; the sync path
  // records no kQueueWait samples.
  for (std::size_t q = 0; q < n; ++q) {
    obs::QueryTrace* const trace = batch->traces[q];
    if (trace == nullptr) continue;
    if (batch->async) {
      const std::int64_t wait_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              batch->start - batch->requests[q].submit_time)
              .count();
      if (wait_ns > 0) {
        trace->AddNanos(obs::Stage::kQueueWait,
                        static_cast<std::uint64_t>(wait_ns));
      }
    }
    for (int s = 0; s < obs::kNumStages; ++s) {
      const std::uint64_t ns = trace->Nanos(static_cast<obs::Stage>(s));
      if (ns > 0) stage_hist_[s]->Record(static_cast<double>(ns) * 1e-3);
    }
    traced_queries_->Increment();
    if (config_.trace_sink) config_.trace_sink(batch->seeds[q], *trace);
  }
}

Status SearchEngine::SearchBatch(const SearchRequest* requests,
                                 std::size_t num_requests,
                                 std::vector<SearchResponse>* responses) {
  if (responses == nullptr) {
    return Status::InvalidArgument("null responses");
  }
  responses->assign(num_requests, {});
  if (num_requests == 0) return Status::Ok();  // empty batch is a no-op
  if (requests == nullptr) {
    return Status::InvalidArgument("null requests");
  }
  Batch* batch = AcquireBatch();
  batch->async = false;
  batch->done = false;
  batch->slots.clear();
  batch->sources.clear();
  batch->owned_params.clear();
  batch->seeds.clear();
  // Per-response error contract: a null-query request fails through its own
  // response.status while the valid requests still execute (compacted into
  // a dense sub-batch, then scattered back). Relative timeouts resolve
  // against ONE admission timestamp for the whole batch -- read lazily, so
  // deadline-free batches never touch the clock here (part of the
  // bit-determinism contract).
  std::chrono::steady_clock::time_point now{};
  bool now_read = false;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const SearchRequest& request = requests[i];
    if (request.query == nullptr) {
      (*responses)[i].status = Status::InvalidArgument("null query in request");
      continue;
    }
    batch->slots.push_back(i);
    batch->sources.push_back(request.query);
    batch->owned_params.push_back(request.options);
    if (request.options.timeout_us != 0 && !now_read) {
      now = std::chrono::steady_clock::now();
      now_read = true;
    }
    batch->owned_params.back().ResolveDeadline(now);
    // Auto-seed by the request's BATCH POSITION (not its compacted slot)
    // so a request's derived seed is independent of its neighbors'
    // validity.
    batch->seeds.push_back(
        request.options.seed.value_or(QuerySeed(config_.seed, i)));
  }
  const std::size_t n = batch->slots.size();
  if (n > 0) {
    batch->params.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      batch->params[j] = &batch->owned_params[j];
    }
    batch->n = n;
    Dispatch(batch);
    {
      std::unique_lock<std::mutex> lock(batch->done_mutex);
      batch->done_cv.wait(lock, [batch] { return batch->done; });
    }
    for (std::size_t j = 0; j < n; ++j) {
      (*responses)[batch->slots[j]] = std::move(batch->responses[j]);
    }
  }
  ReleaseBatch(batch);
  for (const SearchResponse& response : *responses) {
    if (!response.status.ok()) return response.status;
  }
  return Status::Ok();
}

SearchResponse SearchEngine::Search(const SearchRequest& request) {
  std::vector<SearchResponse> responses;
  const Status status = SearchBatch(&request, 1, &responses);
  if (responses.empty()) {
    SearchResponse response;
    response.status =
        status.ok() ? Status::Internal("batch of one produced no response")
                    : status;
    return response;
  }
  SearchResponse response = std::move(responses.front());
  // A batch-level failure must not surface as an ok() response.
  if (response.status.ok() && !status.ok()) response.status = status;
  return response;
}

std::future<SearchResponse> SearchEngine::SubmitAsync(
    const SearchRequest& request) {
  QueuedQuery queued;
  std::future<SearchResponse> future = queued.promise.get_future();
  if (request.query == nullptr) {
    queued.promise.set_value(
        SearchResponse{Status::InvalidArgument("null query in request"),
                       {},
                       {}});
    return future;
  }
  queued.query.assign(request.query, request.query + dim());
  queued.options = request.options;
  // Not value_or: its argument evaluates eagerly, and an explicitly-seeded
  // submission must NOT consume a ticket (the auto-seed stream of
  // interleaved unseeded submissions would shift otherwise).
  queued.seed = request.options.seed.has_value()
                    ? *request.options.seed
                    : QuerySeed(config_.seed, next_ticket_.fetch_add(
                                                  1, std::memory_order_relaxed));
  queued.submit_time = std::chrono::steady_clock::now();
  // A relative timeout becomes an absolute deadline at ADMISSION, so queue
  // time counts against the budget (that is the point of shedding).
  queued.options.ResolveDeadline(queued.submit_time);
  bool injected_full = false;
  RABITQ_FAILPOINT("engine.queue_push", injected_full = true);
  const RequestQueue::PushResult pushed =
      injected_full ? RequestQueue::PushResult::kFull
                    : queue_.Push(std::move(queued));
  switch (pushed) {
    case RequestQueue::PushResult::kAccepted:
      break;
    case RequestQueue::PushResult::kFull: {
      // Push refused without consuming `queued`; fail fast instead of
      // queueing work the engine is too far behind to serve in time.
      stats_.RecordRejected();
      SearchResponse response;
      response.status = Status::ResourceExhausted("request queue is full");
      queued.promise.set_value(std::move(response));
      break;
    }
    case RequestQueue::PushResult::kClosed: {
      SearchResponse response;
      response.status = Status::FailedPrecondition("engine is shutting down");
      queued.promise.set_value(std::move(response));
      break;
    }
  }
  return future;
}

Status SearchEngine::Insert(const float* vec, std::uint32_t* id_out) {
  std::uint32_t id = 0, shard = 0;
  RABITQ_RETURN_IF_ERROR(index_.ReserveId(&id, &shard));
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    std::unique_lock<FairSharedMutex> write_lock(sync_[shard]->index_mutex);
    status = index_.CompleteAdd(id, shard, vec);
  }
  if (status.ok()) {
    epoch_.fetch_add(1, std::memory_order_release);
    stats_.RecordInsert();
    if (id_out != nullptr) *id_out = id;
  }
  return status;
}

bool SearchEngine::ListNeedsCompaction(std::uint32_t shard,
                                       std::uint32_t list_id) const {
  // Called under the shard's writer_mutex with no other writer of that
  // shard possible, so reading its list stats outside index_mutex is safe;
  // O(1), unlike a full ListsNeedingCompaction scan.
  if (config_.compaction_tombstone_ratio <= 0.0f) return false;
  const IvfRabitqIndex& s = index_.shard(shard);
  const std::size_t dead = s.list_tombstones(list_id);
  if (dead == 0 || dead < config_.compaction_min_dead) return false;
  return static_cast<float>(dead) >=
         config_.compaction_tombstone_ratio *
             static_cast<float>(s.list_ids(list_id).size());
}

Status SearchEngine::Delete(std::uint32_t id) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    {
      std::unique_lock<FairSharedMutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Delete(id);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordDelete();
      // Delete leaves the local id pointing at the tombstoned entry's list.
      kick = ListNeedsCompaction(
          shard, index_.shard(shard).list_of(index_.local_of(id)));
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::Update(std::uint32_t id, const float* vec) {
  std::uint32_t shard = 0;
  if (!index_.TryShardOf(id, &shard)) return Status::NotFound("id not live");
  bool kick = false;
  Status status;
  {
    std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
    // The tombstone lands in the list currently holding the id; capture it
    // before Update repoints the shard's id->list mapping.
    const bool live = !index_.IsDeleted(id);
    const std::uint32_t old_list =
        live ? index_.shard(shard).list_of(index_.local_of(id)) : 0;
    {
      std::unique_lock<FairSharedMutex> write_lock(sync_[shard]->index_mutex);
      status = index_.Update(id, vec);
    }
    if (status.ok()) {
      epoch_.fetch_add(1, std::memory_order_release);
      stats_.RecordUpdate();
      kick = ListNeedsCompaction(shard, old_list);
    }
  }
  if (kick) KickCompactor();
  return status;
}

Status SearchEngine::CompactNow() {
  return RunCompactions(/*min_ratio=*/0.0f, /*min_dead=*/1);
}

Status SearchEngine::RunCompactions(float min_ratio, std::size_t min_dead) {
  Status first_error;
  const auto pass_start = std::chrono::steady_clock::now();
  std::size_t lists_done = 0;
  for (std::size_t shard = 0; shard < index_.num_shards(); ++shard) {
    std::vector<std::uint32_t> victims;
    {
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      victims = index_.shard(shard).ListsNeedingCompaction(min_ratio, min_dead);
    }
    for (const std::uint32_t l : victims) {
      // The shard's writer_mutex is held per LIST, not across the pass: it
      // pins the list between plan (under the shared lock -- queries keep
      // executing) and commit (brief exclusive swap), while mutations of
      // this shard interleave between lists instead of stalling, and other
      // shards are never touched at all.
      std::lock_guard<std::mutex> writer(sync_[shard]->writer_mutex);
      IvfRabitqIndex* target = index_.mutable_shard(shard);
      // Tombstone count at plan time == entries the commit reclaims (the
      // commit fails closed if the list mutates in between).
      const std::size_t dead = target->list_tombstones(l);
      if (dead == 0) continue;  // mutated since selection
      IvfCompactionPlan plan;
      Status s;
      {
        std::shared_lock<FairSharedMutex> read_lock(sync_[shard]->index_mutex);
        s = target->PlanListCompaction(l, &plan);
      }
      if (s.ok()) {
        std::unique_lock<FairSharedMutex> write_lock(sync_[shard]->index_mutex);
        s = target->CommitListCompaction(std::move(plan));
      }
      if (s.ok()) {
        epoch_.fetch_add(1, std::memory_order_release);
        stats_.RecordCompaction();
        compaction_codes_reclaimed_->Add(dead);
        ++lists_done;
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
  }
  // Idle scans (nothing selected) record no pass: the histogram measures
  // the cost of passes that did work, not the compactor's polling cadence.
  if (lists_done > 0) {
    compaction_pass_seconds_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pass_start)
            .count());
  }
  return first_error;
}

void SearchEngine::KickCompactor() {
  {
    std::lock_guard<std::mutex> lock(compactor_mutex_);
    compactor_kicked_ = true;
  }
  compactor_cv_.notify_one();
}

void SearchEngine::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  for (;;) {
    compactor_cv_.wait(lock,
                       [this] { return compactor_kicked_ || compactor_stop_; });
    if (compactor_stop_) return;
    compactor_kicked_ = false;
    lock.unlock();
    RunCompactions(config_.compaction_tombstone_ratio,
                   config_.compaction_min_dead);
    lock.lock();
  }
}

EngineStatsSnapshot SearchEngine::Stats() const {
  EngineStatsSnapshot snap = stats_.Snapshot();
  snap.epoch = epoch();
  snap.num_shards = index_.num_shards();
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    std::shared_lock<FairSharedMutex> lock(sync_[s]->index_mutex);
    snap.live_vectors += index_.shard(s).live_size();
    snap.tombstones += index_.shard(s).num_tombstones();
  }
  // Mirror the lifecycle and derived-health values into gauges so the
  // registry exports (Prometheus/JSON) carry them without recomputation.
  gauge_live_vectors_->Set(static_cast<double>(snap.live_vectors));
  gauge_tombstones_->Set(static_cast<double>(snap.tombstones));
  gauge_epoch_->Set(static_cast<double>(snap.epoch));
  gauge_shards_->Set(static_cast<double>(snap.num_shards));
  gauge_violation_rate_->Set(snap.eps0_violation_rate);
  gauge_signed_err_mean_->Set(snap.rerank_signed_err_mean);
  gauge_tightness_mean_->Set(snap.rerank_bound_tightness_mean);
  return snap;
}

obs::MetricsSnapshot SearchEngine::SnapshotMetrics() const {
  (void)Stats();  // refresh the lifecycle + derived-health gauges
  return metrics_.Snapshot();
}

Status SearchEngine::SaveSnapshot(const std::string& path) const {
  // Every shard's writer mutex (ascending): each mutation and compaction
  // holds its shard's writer mutex for its whole span, so the saved cut is
  // consistent across shards. Not the shared index locks: a writer queued
  // behind a long save would then hold every new search batch back on the
  // phase-fair lock for the rest of the save.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(sync_.size());
  for (const auto& sync : sync_) locks.emplace_back(sync->writer_mutex);
  return index_.Save(path);
}

void SearchEngine::SchedulerLoop() {
  std::vector<QueuedQuery> popped;
  std::vector<QueuedQuery> shed;
  for (;;) {
    // Work-conserving: pop as soon as a worker is free, taking whatever is
    // queued at that moment. While every worker is busy the backlog stays
    // in the bounded queue, where admission and deadline shedding see it.
    {
      std::unique_lock<std::mutex> lock(slots_mutex_);
      slots_cv_.wait(lock, [this] {
        return chunks_in_flight_ < pool_.num_threads();
      });
    }
    if (!queue_.PopBatch(config_.max_batch, &popped, &shed)) return;
    // Shed queries fail without executing: their deadline expired while
    // they waited, so the kindest answer is an immediate one.
    for (QueuedQuery& dropped : shed) {
      stats_.RecordShed();
      SearchResponse response;
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      response.partial = true;
      dropped.promise.set_value(std::move(response));
    }
    if (popped.empty()) continue;  // everything popped this round was shed
    Batch* batch = AcquireBatch();
    batch->async = true;
    batch->requests.swap(popped);
    const std::size_t n = batch->requests.size();
    batch->sources.resize(n);
    batch->params.resize(n);
    batch->seeds.resize(n);
    for (std::size_t q = 0; q < n; ++q) {
      batch->sources[q] = batch->requests[q].query.data();
      batch->params[q] = &batch->requests[q].options;
      batch->seeds[q] = batch->requests[q].seed;
    }
    batch->n = n;
    Dispatch(batch);
  }
}

}  // namespace rabitq
