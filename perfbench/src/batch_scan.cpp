// batch_scan_hidim: MSong-like heavy-tailed data at 420 dimensions, the
// paper's case where PQ collapses and RaBitQ's bound holds. One caller
// thread issues in-process SearchEngine::SearchBatch batches of 32 (the
// engine's own max_batch) at nprobe 16 of 64 lists (~1000 codes a list), so
// fast-scan, estimation and re-rank dominate; no wire and no queue are
// involved. Writes and snapshot rounds run in process too.

#include <filesystem>
#include <memory>

#include "layers.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "proc.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::size_t kBase = 65536;
constexpr std::size_t kDim = 420;
constexpr std::size_t kQueries = 512;
constexpr std::size_t kLists = 64;
constexpr std::size_t kNprobe = 16;
constexpr std::size_t kK = 10;
constexpr std::size_t kBatch = 32;
constexpr int kRounds = 4;                    // write bursts / Save-Load rounds
constexpr std::size_t kBurst = 16 * kWriteWindow;
const char* const kCollection = "msong";

rabitq::ShardedConfig Config() {
  rabitq::ShardedConfig config;
  config.num_shards = 1;
  config.clustering = rabitq::ShardClustering::kShared;
  config.ivf.num_lists = kLists;
  config.ivf.metric = rabitq::Metric::kL2;
  config.rabitq.bits_per_dim = 1;
  return config;
}

}  // namespace

RunResult RunBatchScanHidim(const Options& opt) {
  RunResult out;
  const std::uint64_t seed = opt.seed;
  const rabitq::Matrix base = Generate(Shape::kHeavyTailed, kBase, kDim, seed, 1);
  const rabitq::Matrix queries =
      Generate(Shape::kHeavyTailed, kQueries, kDim, seed, 2);
  const auto truth = ExactTopKBatch(Space::kL2, base, kBase, queries, kK,
                                    nullptr, LoadThreads());
  auto options_for = [&](std::size_t q) {
    rabitq::SearchOptions o;
    o.k = kK;
    o.nprobe = kNprobe;
    o.seed = Mix(seed, q);
    return o;
  };

  // Resident set of the benchmark's own inputs, oracle answers and code,
  // taken off the peak below so that peak_rss_mb counts the index and engine.
  const double resident_before_build = ResidentMb(::getpid());

  // Set-up: KMeans + encode + engine start.
  const auto setup_start = Clock::now();
  rabitq::ShardedIndex index;
  rabitq::Status st = index.Build(base, Config());
  ++out.attempted;
  if (!st.ok()) {
    out.Fail("build: " + st.ToString());
    return out;
  }
  auto engine = std::make_unique<rabitq::SearchEngine>(std::move(index));
  out.E2E("setup_s", SecondsSince(setup_start), "s");

  // Batched throughput: whole batches cycling through the query pool.
  std::vector<rabitq::SearchRequest> requests(kBatch);
  std::vector<rabitq::SearchResponse> responses;
  std::vector<std::vector<rabitq::Neighbor>> first(kQueries);
  std::vector<double> batch_us;
  std::vector<double> completions;  // s since the phase began, per query
  const std::string before = rabitq::obs::ExportJson(engine->SnapshotMetrics());
  const auto phase_start = Clock::now();
  const auto stop = phase_start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(opt.seconds));
  for (std::size_t b = 0; Clock::now() < stop; ++b) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t q = (b * kBatch + i) % kQueries;
      requests[i].query = queries.Row(q);
      requests[i].options = options_for(q);
    }
    const auto t0 = Clock::now();
    (void)engine->SearchBatch(requests.data(), kBatch, &responses);
    const auto t1 = Clock::now();
    const double us = MicrosBetween(t0, t1);
    batch_us.push_back(us);
    const double at = std::chrono::duration<double>(t1 - phase_start).count();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t q = (b * kBatch + i) % kQueries;
      ++out.attempted;
      if (!responses[i].ok()) {
        ++out.failed;
        continue;
      }
      completions.push_back(at);
      // Results are a pure function of (query, seed): every later answer
      // must repeat the first one bit for bit.
      if (b * kBatch + i < kQueries) {
        first[q] = responses[i].neighbors;
      } else {
        const std::string diff = CheckIdentical(responses[i].neighbors, first[q]);
        if (!diff.empty()) out.Fail("repeat of query " + std::to_string(q) + ": " + diff);
      }
    }
  }
  const std::string after = rabitq::obs::ExportJson(engine->SnapshotMetrics());
  out.E2E("search_qps", WindowedRate(completions, opt.seconds, 1.0), "queries/s");
  // Every query of a batch completes with its batch.
  RecordSearchLatency(batch_us, &out);
  // Peak resident set of the serving engine up to here (set-up and the
  // scan), above what the benchmark held before Build. The writes and
  // snapshot rounds below reallocate in the same process, where the
  // allocator's reuse made the later peak bimodal.
  out.E2E("peak_rss_mb", PeakRssMb(::getpid()) - resident_before_build, "MB");
  out.Note("batch phase: " + std::to_string(batch_us.size()) + " batches of " +
           std::to_string(kBatch) + ", median " + std::to_string(Median(batch_us)) +
           " us");

  // Checks and recall over the first pass through the pool.
  double recall = 0.0, ceiling = 0.0;
  std::size_t judged = 0;
  auto vector_of = [&](std::uint32_t id) -> const float* {
    return id < kBase ? base.Row(id) : nullptr;
  };
  for (std::size_t q = 0; q < kQueries; ++q) {
    if (first[q].empty()) continue;
    for (const std::string& e :
         {CheckOrdered(first[q]),
          CheckDistances(first[q], Space::kL2, queries.Row(q), kDim, vector_of)}) {
      if (!e.empty()) out.Fail("query " + std::to_string(q) + ": " + e);
    }
    recall += RecallAtK(first[q], truth[q], kK);
    ceiling += ProbedCeiling(engine->index(),
                             ProbedLists(engine->index(), Space::kL2, queries.Row(q), kNprobe),
                             truth[q], kK);
    ++judged;
  }
  if (judged < kQueries) out.Fail("the run did not complete one pass over the queries");
  recall /= static_cast<double>(std::max<std::size_t>(1, judged));
  ceiling /= static_cast<double>(std::max<std::size_t>(1, judged));
  out.E2E("recall_at_10", recall, "ratio");
  const std::string floor = CheckRecallFloor(recall, ceiling, kRecallSlack);
  if (!floor.empty()) out.Fail(floor);

  // The engine's own stage means fit inside the latency of the same queries
  // measured here: eight queries, each given the first seed of its stream
  // that the engine traces (it samples by seed), searched one at a time
  // through SearchEngine::Search, four times each.
  std::vector<rabitq::SearchRequest> traced(8);
  for (std::size_t q = 0; q < traced.size(); ++q) {
    traced[q].query = queries.Row(q);
    traced[q].options = options_for(q);
    for (std::uint64_t j = 0;; ++j) {
      traced[q].options.seed = Mix(seed ^ 0x57A6E, q * 1000003 + j);
      if (rabitq::obs::SampleTrace(*traced[q].options.seed,
                                   rabitq::EngineConfig().trace_sample_period)) {
        break;
      }
    }
  }
  std::vector<double> solo_us;
  const std::string solo_before = rabitq::obs::ExportJson(engine->SnapshotMetrics());
  for (int rep = 0; rep < 4; ++rep) {
    for (const rabitq::SearchRequest& request : traced) {
      const auto t0 = Clock::now();
      const rabitq::SearchResponse r = engine->Search(request);
      solo_us.push_back(MicrosBetween(t0, Clock::now()));
      ++out.attempted;
      if (!r.ok()) ++out.failed;
    }
  }
  double stage_traced = 0.0;
  const double solo_stage_sum = StageSumBetween(
      solo_before, rabitq::obs::ExportJson(engine->SnapshotMetrics()), &stage_traced);
  const std::string stage_check = CheckStageSum(solo_stage_sum, Mean(solo_us));
  if (!stage_check.empty()) out.Fail("batch_scan_hidim: " + stage_check);
  if (stage_traced != static_cast<double>(solo_us.size())) {
    out.Fail("the engine traced " + std::to_string(stage_traced) + " of " +
             std::to_string(solo_us.size()) + " queries chosen to be traced");
  }
  out.Note("stage sum " + std::to_string(solo_stage_sum) + " us vs " +
           std::to_string(Mean(solo_us)) + " us per query, one in flight");

  SpanRecorder spans;  // traced pass only
  RunResult stage_probe;
  RecordStageMeans(after, &stage_probe);
  if (opt.trace) {
    for (auto& [name, m] : stage_probe.per_layer) out.per_layer[name] = m;
    const double batches = StatValue(after, "rabitq_batches_total") -
                           StatValue(before, "rabitq_batches_total");
    const double served = StatValue(after, "rabitq_queries_total") -
                          StatValue(before, "rabitq_queries_total");
    out.Layer("engine.batch_size_mean", batches > 0 ? served / batches : 0.0, "count");
    out.Layer("core.eps0_violation_rate",
              StatValue(after, "rabitq_eps0_violation_rate"), "ratio");

    // The wire layer does nothing on this workload's path; a served copy of
    // the same collection gives its figures for comparison.
    const std::string root = opt.work_dir + "/snapshots";
    std::filesystem::create_directories(root);
    ServerProcess server;
    const std::string err = server.Start(opt.server_binary, root);
    rabitq::server::Client client;
    if (err.empty()) st = client.Connect("127.0.0.1", server.port());
    rabitq::server::WireCollectionSpec spec;
    spec.dim = kDim;
    spec.num_lists = kLists;
    if (err.empty() && st.ok()) st = client.CreateCollection(kCollection, spec, base);
    if (!err.empty() || !st.ok()) {
      out.Fail("traced server: " + err + st.ToString());
      return out;
    }
    TraceInputs in;
    in.engine = engine.get();
    in.wire = &client;
    in.collection = kCollection;
    in.queries = &queries;
    for (std::size_t q = 0; q < 128; ++q) in.sample.push_back(q);
    in.options_for = options_for;
    in.engine_batch = kBatch;
    in.save_dir = opt.work_dir + "/save_probe";
    RunTracedPass(in, &spans, &out);
    server.Stop();
    RecordBuildSplit(base, Config(), &out);
  }

  // Writes in process (a fixed seeded sequence, closed loop) in bursts, each
  // followed by a Save / drop / Load round whose answers before and after
  // must match.
  WriteModel model(base, kRounds * kBurst);
  auto answers = [&] {
    std::vector<rabitq::SearchRequest> all(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      all[q].query = queries.Row(q);
      all[q].options = options_for(q);
    }
    std::vector<rabitq::SearchResponse> got;
    (void)engine->SearchBatch(all.data(), kQueries, &got);
    std::vector<Result> results(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      ++out.attempted;
      if (!got[q].ok()) {
        ++out.failed;
        continue;
      }
      std::string e = CheckOrdered(got[q].neighbors);
      if (e.empty()) {
        e = CheckDistances(got[q].neighbors, Space::kL2, queries.Row(q), kDim,
                           [&](std::uint32_t id) -> const float* {
                             return id < model.next_id ? model.rows.Row(id) : nullptr;
                           });
      }
      if (e.empty()) {
        e = CheckNoDeleted(got[q].neighbors,
                           [&](std::uint32_t id) { return model.live[id] == 0; });
      }
      if (!e.empty()) out.Fail("after writes, query " + std::to_string(q) + ": " + e);
      results[q] = std::move(got[q].neighbors);
    }
    return results;
  };
  const std::string snapshot_dir = opt.work_dir + "/snapshot";
  WritePersistRounds(
      kRounds, kBurst, Shape::kHeavyTailed, seed, &model,
      [&](WriteOp op, std::uint32_t id, const float* vec, std::uint32_t* new_id) {
        if (engine == nullptr) return rabitq::Status::Internal("no engine after restore");
        switch (op) {
          case WriteOp::kAdd: return engine->Insert(vec, new_id);
          case WriteOp::kUpdate: return engine->Update(id, vec);
          case WriteOp::kDelete: return engine->Delete(id);
        }
        return rabitq::Status::Ok();
      },
      [&] {
        return engine != nullptr ? engine->SaveSnapshot(snapshot_dir)
                                 : rabitq::Status::Internal("no engine after restore");
      },
      [&] {
        engine.reset();
        return rabitq::Status::Ok();
      },
      [&] {
        rabitq::ShardedIndex restored;
        rabitq::Status s = restored.Load(snapshot_dir);
        if (s.ok()) engine = std::make_unique<rabitq::SearchEngine>(std::move(restored));
        return s;
      },
      [&] {
        if (engine == nullptr) {
          out.Fail("restore left no engine");
          return std::vector<Result>();
        }
        return answers();
      },
      &out);
  if (engine == nullptr) return out;
  out.E2E("snapshot_bytes_per_vector",
          static_cast<double>(DirectoryBytes(snapshot_dir)) /
              static_cast<double>(model.live_ids.size()),
          "bytes");
  if (opt.trace) {
    // Mutations last: the writes and snapshot rounds above run on the same
    // engine and must see it as the scan phase left it.
    RecordMutations(engine.get(), Generate(Shape::kHeavyTailed, 100, kDim, seed, 9),
                    &spans, &out);
    const std::string path = opt.out_dir + "/spans-batch_scan_hidim-" +
                             std::to_string(seed) + ".jsonl";
    if (!spans.WriteJsonl(path, "{\"workload\":\"batch_scan_hidim\",\"seed\":" +
                                    std::to_string(seed) + "}")) {
      out.Fail("could not write " + path);
    }
  }
  return out;
}

}  // namespace perfbench
