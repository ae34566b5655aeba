// wire_search_l2: SIFT-like Gaussian mixture, 128 dimensions, one shard,
// B = 1, L2, k = 10, nprobe 8 of 256 lists, served by rabitq_server over
// TCP. An open loop at a rate low enough that most requests arrive alone
// (per-query compute is a minority of the round trip, so framing,
// connection threads, admission and micro-batch linger dominate), then a
// closed loop with one connection per processor (the batcher's
// latency-versus-throughput trade-off).

#include <filesystem>
#include <thread>

#include "layers.h"
#include "obs/trace.h"
#include "proc.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

constexpr std::size_t kBase = 50000;
constexpr std::size_t kDim = 128;
constexpr std::size_t kQueries = 1000;
constexpr std::size_t kLists = 256;
constexpr std::size_t kNprobe = 8;
constexpr std::size_t kK = 10;
constexpr double kOpenLoopRate = 500.0;   // requests per second
constexpr double kOpenLoopShare = 0.6;    // of --seconds; the rest is capacity
constexpr int kRounds = 10;                   // write bursts / snapshot rounds
constexpr std::size_t kBurst = 4 * kWriteWindow;
constexpr std::size_t kPersistQueries = 100;  // verified across snapshot rounds
const char* const kCollection = "sift";

rabitq::server::WireCollectionSpec Spec() {
  rabitq::server::WireCollectionSpec spec;
  spec.dim = kDim;
  spec.metric = rabitq::Metric::kL2;
  spec.bits_per_dim = 1;
  spec.num_shards = 1;
  spec.num_lists = kLists;
  return spec;
}

/// The build CollectionManager::Create performs for Spec().
rabitq::ShardedConfig InProcessConfig() {
  rabitq::ShardedConfig config;
  config.num_shards = 1;
  config.clustering = rabitq::ShardClustering::kShared;
  config.ivf.num_lists = kLists;
  config.ivf.metric = rabitq::Metric::kL2;
  config.rabitq.bits_per_dim = 1;
  return config;
}

}  // namespace

RunResult RunWireSearchL2(const Options& opt) {
  RunResult out;
  const std::uint64_t seed = opt.seed;

  // Inputs and reference answers: untimed.
  const rabitq::Matrix base =
      Generate(Shape::kGaussianMixture, kBase, kDim, seed, 1);
  const rabitq::Matrix queries =
      Generate(Shape::kGaussianMixture, kQueries, kDim, seed, 2);
  const auto truth = ExactTopKBatch(Space::kL2, base, kBase, queries, kK,
                                    nullptr, LoadThreads());
  auto options_for = [&](std::size_t q) {
    rabitq::SearchOptions o;
    o.k = kK;
    o.nprobe = kNprobe;
    o.seed = Mix(seed, q);
    return o;
  };

  // Set-up: server start to collection ready (upload, KMeans, encode).
  const std::string root = opt.work_dir + "/snapshots";
  std::filesystem::create_directories(root);
  const auto setup_start = Clock::now();
  ServerProcess server;
  std::string err = server.Start(opt.server_binary, root);
  if (!err.empty()) {
    out.Fail("server start: " + err);
    return out;
  }
  rabitq::server::Client admin;
  rabitq::Status st = admin.Connect("127.0.0.1", server.port());
  if (st.ok()) st = admin.CreateCollection(kCollection, Spec(), base);
  ++out.attempted;
  if (!st.ok()) {
    out.Fail("create collection: " + st.ToString());
    return out;
  }
  out.E2E("setup_s", SecondsSince(setup_start), "s");

  // Open loop.
  const std::vector<double> schedule =
      PoissonSchedule(kOpenLoopRate, kOpenLoopShare * opt.seconds, seed);
  const std::size_t connections = std::min<std::size_t>(4, LoadThreads());
  std::vector<OpenLoopSample> open = RunOpenLoop(
      server.port(), connections, schedule,
      [&](std::size_t i, rabitq::server::Client& c) {
        const std::size_t q = i % kQueries;
        return c.Search(kCollection, queries.Row(q), kDim, options_for(q));
      },
      &err);
  if (open.empty()) {
    out.Fail("open loop: " + err);
    return out;
  }
  const std::string open_stats = CollectionStats(admin, kCollection);

  // Closed loop at capacity: one connection per processor.
  const std::vector<ClosedLoopSample> closed = RunClosedLoop(
      server.port(), LoadThreads(), (1.0 - kOpenLoopShare) * opt.seconds,
      [&](std::size_t i, rabitq::server::Client& c) {
        const std::size_t q = (i * 7919) % kQueries;
        return c.Search(kCollection, queries.Row(q), kDim, options_for(q));
      },
      &out);
  const std::string closed_stats = CollectionStats(admin, kCollection);
  out.Layer("core.eps0_violation_rate",
            StatValue(closed_stats, "rabitq_eps0_violation_rate"), "ratio");
  const double batches = StatValue(closed_stats, "rabitq_batches_total") -
                         StatValue(open_stats, "rabitq_batches_total");
  const double served = StatValue(closed_stats, "rabitq_queries_total") -
                        StatValue(open_stats, "rabitq_queries_total");
  out.Layer("engine.batch_size_mean", batches > 0 ? served / batches : 0.0, "count");

  // End-to-end figures.
  std::vector<double> latency, late;
  for (const auto& s : open) {
    latency.push_back(s.latency_us);
    late.push_back(s.late_us);
  }
  RecordSearchLatency(latency, &out);
  out.Note("open loop: " + std::to_string(open.size()) + " requests at " +
           std::to_string(kOpenLoopRate) + "/s on " + std::to_string(connections) +
           " connections; generator late p50 " + std::to_string(Median(late)) +
           " us, p99 " + std::to_string(Quantile(late, 0.99)) + " us, max " +
           std::to_string(Quantile(late, 1.0)) + " us");

  // In-process engine with the collection's configuration: parity and the
  // probed-list ceiling.
  rabitq::ShardedIndex index;
  st = index.Build(base, InProcessConfig());
  if (!st.ok()) {
    out.Fail("in-process build: " + st.ToString());
    return out;
  }
  rabitq::SearchEngine engine(std::move(index));

  // Checks on every open-loop response; recall over them.
  std::vector<const rabitq::SearchResponse*> first(kQueries, nullptr);
  double recall = 0.0, ceiling = 0.0;
  std::size_t judged = 0;
  auto vector_of = [&](std::uint32_t id) -> const float* {
    return id < kBase ? base.Row(id) : nullptr;
  };
  // Counts an open-loop operation; checks its output when it succeeded.
  auto check_one = [&](std::size_t q, const rabitq::SearchResponse& r) {
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
      return false;
    }
    for (const std::string& e :
         {CheckOrdered(r.neighbors),
          CheckDistances(r.neighbors, Space::kL2, queries.Row(q), kDim, vector_of)}) {
      if (!e.empty()) out.Fail("query " + std::to_string(q) + ": " + e);
    }
    return true;
  };
  std::vector<double> sampled_service;
  for (std::size_t i = 0; i < open.size(); ++i) {
    const std::size_t q = i % kQueries;
    if (!check_one(q, open[i].response)) continue;
    if (first[q] == nullptr) first[q] = &open[i].response;
    recall += RecallAtK(open[i].response.neighbors, truth[q], kK);
    ceiling += ProbedCeiling(engine.index(),
                             ProbedLists(engine.index(), Space::kL2, queries.Row(q), kNprobe),
                             truth[q], kK);
    ++judged;
    if (rabitq::obs::SampleTrace(*options_for(q).seed,
                                 rabitq::EngineConfig().trace_sample_period)) {
      sampled_service.push_back(open[i].service_us);
    }
  }
  for (const ClosedLoopSample& s : closed) {
    if (!s.response.ok()) continue;
    const std::size_t q = (s.index * 7919) % kQueries;
    for (const std::string& e :
         {CheckOrdered(s.response.neighbors),
          CheckDistances(s.response.neighbors, Space::kL2, queries.Row(q), kDim,
                         vector_of)}) {
      if (!e.empty()) out.Fail("closed-loop query " + std::to_string(q) + ": " + e);
    }
  }
  recall /= static_cast<double>(std::max<std::size_t>(1, judged));
  ceiling /= static_cast<double>(std::max<std::size_t>(1, judged));
  out.E2E("recall_at_10", recall, "ratio");
  const std::string floor = CheckRecallFloor(recall, ceiling, kRecallSlack);
  if (!floor.empty()) out.Fail(floor);

  // Wire results equal the in-process engine's at equal seeds.
  for (std::size_t q = 0; q < kQueries; ++q) {
    if (first[q] == nullptr) continue;
    rabitq::SearchRequest request;
    request.query = queries.Row(q);
    request.options = options_for(q);
    const std::string diff =
        CheckIdentical(first[q]->neighbors, engine.Search(request).neighbors);
    if (!diff.empty()) out.Fail("wire vs in-process, query " + std::to_string(q) + ": " + diff);
  }

  // The engine's own stage means fit inside the round trip of the same
  // (sampled) queries.
  RunResult stage_probe;
  const double stage_sum = RecordStageMeans(open_stats, &stage_probe);
  if (!sampled_service.empty()) {
    const std::string e = CheckStageSum(stage_sum, Mean(sampled_service));
    if (!e.empty()) out.Fail("wire_search_l2: " + e);
  }

  if (opt.trace) {
    for (auto& [name, m] : stage_probe.per_layer) out.per_layer[name] = m;
    const rabitq::Matrix fresh =
        Generate(Shape::kGaussianMixture, 100, kDim, seed, 9);
    TraceInputs in;
    in.engine = &engine;
    in.wire = &admin;
    in.collection = kCollection;
    in.queries = &queries;
    for (std::size_t q = 0; q < 200; ++q) in.sample.push_back(q);
    in.options_for = options_for;
    in.engine_batch = rabitq::EngineConfig().max_batch;
    in.save_dir = opt.work_dir + "/save_probe";
    SpanRecorder spans;
    RunTracedPass(in, &spans, &out);
    RecordMutations(&engine, fresh, &spans, &out);
    RecordBuildSplit(base, InProcessConfig(), &out);
    const std::string path = opt.out_dir + "/spans-wire_search_l2-" +
                             std::to_string(seed) + ".jsonl";
    if (!spans.WriteJsonl(path, "{\"workload\":\"wire_search_l2\",\"seed\":" +
                                    std::to_string(seed) + "}")) {
      out.Fail("could not write " + path);
    }
  }

  // Peak resident set of the server through set-up and the search phases.
  // The restores below replace the collection while the dropped one is
  // still draining, so a later reading varied by 40% from run to run.
  out.E2E("peak_rss_mb", PeakRssMb(server.pid()), "MB");

  // Writes (a fixed seeded sequence on one connection, closed loop) in
  // bursts, each followed by a snapshot / drop / restore round whose
  // answers before and after must match.
  WriteModel model(base, kRounds * kBurst);
  auto persisted_answers = [&] {
    std::vector<Result> answers(kPersistQueries);
    for (std::size_t q = 0; q < kPersistQueries; ++q) {
      const rabitq::SearchResponse r =
          admin.Search(kCollection, queries.Row(q), kDim, options_for(q));
      ++out.attempted;
      if (!r.ok()) {
        ++out.failed;
        continue;
      }
      std::string e = CheckOrdered(r.neighbors);
      if (e.empty()) {
        e = CheckDistances(r.neighbors, Space::kL2, queries.Row(q), kDim,
                           [&](std::uint32_t id) -> const float* {
                             return id < model.next_id ? model.rows.Row(id) : nullptr;
                           });
      }
      if (e.empty()) {
        e = CheckNoDeleted(r.neighbors,
                           [&](std::uint32_t id) { return model.live[id] == 0; });
      }
      if (!e.empty()) out.Fail("after writes, query " + std::to_string(q) + ": " + e);
      answers[q] = r.neighbors;
    }
    return answers;
  };
  WritePersistRounds(
      kRounds, kBurst, Shape::kGaussianMixture, seed, &model,
      [&](WriteOp op, std::uint32_t id, const float* vec, std::uint32_t* new_id) {
        switch (op) {
          case WriteOp::kAdd: return admin.Add(kCollection, vec, kDim, new_id);
          case WriteOp::kUpdate: return admin.Update(kCollection, id, vec, kDim);
          case WriteOp::kDelete: return admin.Delete(kCollection, id);
        }
        return rabitq::Status::Ok();
      },
      [&] { return admin.Snapshot(kCollection); },
      [&] { return admin.DropCollection(kCollection); },
      [&] { return admin.Restore(kCollection); }, persisted_answers, &out);
  out.E2E("snapshot_bytes_per_vector",
          static_cast<double>(DirectoryBytes(root + "/" + kCollection + "/snapshot")) /
              static_cast<double>(model.live_ids.size()),
          "bytes");

  server.Stop();
  return out;
}

}  // namespace perfbench
