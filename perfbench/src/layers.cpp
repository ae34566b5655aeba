#include "layers.h"

#include <cmath>
#include <filesystem>

#include "checks.h"
#include "cluster/kmeans.h"
#include "core/estimator.h"
#include "core/metric.h"
#include "core/query.h"
#include "linalg/vector_ops.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "quant/fastscan.h"
#include "server/protocol.h"
#include "stats.h"
#include "util/prng.h"

namespace perfbench {

namespace {

using rabitq::SearchOptions;
using rabitq::SearchRequest;
using rabitq::SearchResponse;

double MedianOf(const SpanRecorder& spans, const std::string& name) {
  return Median(spans.DurationsOf(name));
}

/// Encodes and decodes one search request and its response exactly as the
/// client and server do; returns the four steps' total time in us and the
/// frame sizes.
double CodecRoundTrip(const std::string& collection, const float* query,
                      std::size_t dim, const SearchOptions& options,
                      const SearchResponse& response, std::size_t* req_bytes,
                      std::size_t* resp_bytes) {
  namespace srv = rabitq::server;
  const auto t0 = Clock::now();
  srv::WireSearchOptions wire_options;
  (void)srv::WireSearchOptions::FromOptions(options, &wire_options);
  std::string body;
  srv::WireWriter w(&body);
  w.String(collection);
  srv::EncodeSearchOptions(wire_options, &w);
  w.U32(static_cast<std::uint32_t>(dim));
  w.Floats(query, dim);
  std::string request_frame;
  srv::EncodeFrame(static_cast<std::uint16_t>(srv::MsgType::kSearch), 1, body,
                   &request_frame);

  // Server side: header, CRC, body.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(request_frame.data());
  srv::FrameHeader header;
  (void)srv::DecodeFrameHeader(bytes, &header);
  std::uint32_t crc = 0;
  std::memcpy(&crc, bytes + srv::kFrameHeaderSize + header.body_len, sizeof(crc));
  (void)srv::CheckFrameCrc(bytes, srv::kFrameHeaderSize + header.body_len, crc);
  srv::WireReader r(bytes + srv::kFrameHeaderSize, header.body_len);
  std::string name;
  srv::WireSearchOptions decoded;
  std::uint32_t decoded_dim = 0;
  std::vector<float> decoded_query;
  r.String(&name);
  srv::DecodeSearchOptions(&r, &decoded);
  r.U32(&decoded_dim);
  r.Floats(&decoded_query, decoded_dim);

  std::string response_body;
  srv::WireWriter rw(&response_body);
  srv::EncodeSearchResponse(response, &rw);
  std::string response_frame;
  srv::EncodeFrame(static_cast<std::uint16_t>(srv::MsgType::kSearch) |
                       srv::kResponseFlag,
                   1, response_body, &response_frame);

  // Client side: header, CRC, response.
  const auto* rbytes =
      reinterpret_cast<const std::uint8_t*>(response_frame.data());
  (void)srv::DecodeFrameHeader(rbytes, &header);
  std::memcpy(&crc, rbytes + srv::kFrameHeaderSize + header.body_len,
              sizeof(crc));
  (void)srv::CheckFrameCrc(rbytes, srv::kFrameHeaderSize + header.body_len, crc);
  srv::WireReader rr(rbytes + srv::kFrameHeaderSize, header.body_len);
  SearchResponse decoded_response;
  srv::DecodeSearchResponse(&rr, &decoded_response);
  const double us = MicrosBetween(t0, Clock::now());
  *req_bytes = request_frame.size();
  *resp_bytes = response_frame.size();
  return us;
}

struct KernelTotals {
  double estimate_ns = 0.0;
  double fastscan_ns = 0.0;
  double codes = 0.0;
  double distance_ns = 0.0;
  double distances = 0.0;
};

/// Hand decomposition of one ShardedIndex::Search into its core kernels,
/// over the same lists the query probes in every shard. Each kernel call is
/// a child span of "core.decompose".
void Decompose(const rabitq::ShardedIndex& index, const float* raw_query,
               const SearchOptions& options, std::uint64_t request,
               std::int32_t parent, SpanRecorder* spans, KernelTotals* totals) {
  const std::size_t dim = index.dim();
  const rabitq::Metric metric = index.metric();
  std::vector<float> query(raw_query, raw_query + dim);
  if (metric == rabitq::Metric::kCosine) rabitq::NormalizeInPlace(query.data(), dim);
  const rabitq::RabitqEncoder& encoder = index.encoder();
  std::vector<float> rotated(encoder.total_bits());
  spans->Time("core.rotate", parent, request, [&] {
    encoder.rotator().InverseRotate(query.data(), rotated.data());
  });
  const float query_norm_sq =
      metric == rabitq::Metric::kL2 ? 0.0f : rabitq::SquaredNorm(query.data(), dim);

  std::vector<std::pair<float, std::uint32_t>> order;
  std::vector<float> est;
  std::vector<float> lower;
  rabitq::QuantizedQuery qq;
  std::uint32_t sums[rabitq::kFastScanBlockSize];
  const std::uint64_t seed = options.seed.value_or(0);
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    const rabitq::IvfRabitqIndex& shard = index.shard(s);
    spans->Time("core.probe_order", parent, request, [&] {
      shard.ProbeOrderInto(query.data(), options.nprobe, &order);
    });
    const std::size_t nprobe = std::min(options.nprobe, order.size());
    for (std::size_t p = 0; p < nprobe; ++p) {
      const std::uint32_t list = order[p].second;
      const rabitq::RabitqCodeStore& codes = shard.list_codes(list);
      if (codes.size() == 0) continue;
      rabitq::Rng rng(rabitq::MixSeed(seed, list));
      const float q_dist = std::sqrt(std::max(
          0.0f, rabitq::L2SqrDistance(query.data(), shard.centroids().Row(list), dim)));
      spans->Time("core.prepare_query", parent, request, [&] {
        (void)rabitq::PrepareQueryFromRotated(
            encoder, rotated.data(), shard.rotated_centroids().Row(list), q_dist,
            &rng, &qq, 0, metric, query_norm_sq);
      });
      est.resize(codes.size() + rabitq::kFastScanBlockSize);
      lower.resize(codes.size() + rabitq::kFastScanBlockSize);
      totals->estimate_ns += 1e3 * spans->Time("core.estimate", parent, request, [&] {
        rabitq::EstimateAll(qq, codes, encoder.config().epsilon0, est.data(),
                            lower.data());
      });
      const rabitq::FastScanCodes& packed = codes.packed();
      totals->fastscan_ns += 1e3 * spans->Time("quant.fastscan", parent, request, [&] {
        for (std::size_t b = 0; b < packed.num_blocks; ++b) {
          rabitq::FastScanAccumulateBlock(packed.BlockPtr(b), packed.num_segments,
                                          qq.luts.data(), sums);
        }
      });
      totals->codes += static_cast<double>(codes.size());
      // Re-rank work: exact distances to the list's first few members.
      const std::vector<std::uint32_t>& ids = shard.list_ids(list);
      const std::size_t rerank = std::min<std::size_t>(ids.size(), 16);
      volatile float sink = 0.0f;
      totals->distance_ns += 1e3 * spans->Time("linalg.exact_distance", parent, request, [&] {
        float acc = 0.0f;
        for (std::size_t i = 0; i < rerank; ++i) {
          acc += rabitq::MetricDistance(metric, shard.vector(ids[i]), query.data(), dim);
        }
        sink = acc;
      });
      (void)sink;
      totals->distances += static_cast<double>(rerank);
    }
  }
}

}  // namespace

double RecordStageMeans(const std::string& stats_json, RunResult* out) {
  double sum = 0.0;
  for (int s = 0; s < rabitq::obs::kNumStages; ++s) {
    const std::string stage =
        rabitq::obs::StageName(static_cast<rabitq::obs::Stage>(s));
    const double mean =
        HistField(stats_json, "rabitq_stage_" + stage + "_us", "mean");
    out->Layer("engine.stage." + stage + "_us", mean, "us");
    sum += mean;
  }
  return sum;
}

double StageSumBetween(const std::string& before_json,
                       const std::string& after_json, double* traced) {
  double sum = 0.0;
  *traced = 0.0;
  for (int s = 0; s < rabitq::obs::kNumStages; ++s) {
    const std::string name =
        "rabitq_stage_" +
        std::string(rabitq::obs::StageName(static_cast<rabitq::obs::Stage>(s))) +
        "_us";
    const double count = HistField(after_json, name, "count") -
                         HistField(before_json, name, "count");
    if (count <= 0.0) continue;
    *traced = std::max(*traced, count);
    sum += (HistField(after_json, name, "sum") - HistField(before_json, name, "sum")) /
           count;
  }
  return sum;
}

void RecordBuildSplit(const rabitq::Matrix& data,
                      const rabitq::ShardedConfig& config, RunResult* out) {
  // Build is RunKMeans followed by encoding against the clustering; the two
  // halves are timed apart on the workload's own data (normalized first
  // under cosine, as Build does), encoding as one unsharded index.
  rabitq::Matrix source = data;
  if (config.ivf.metric == rabitq::Metric::kCosine) {
    for (std::size_t i = 0; i < source.rows(); ++i) {
      rabitq::NormalizeInPlace(source.Row(i), source.cols());
    }
  }
  rabitq::KMeansConfig kmeans = config.ivf.kmeans;
  kmeans.num_clusters = std::min(config.ivf.num_lists, data.rows());
  rabitq::KMeansResult clustering;
  auto t0 = Clock::now();
  rabitq::Status status = rabitq::RunKMeans(source, kmeans, &clustering);
  out->Layer("cluster.kmeans_s", SecondsSince(t0), "s");
  if (!status.ok()) out->Fail("traced RunKMeans failed: " + status.ToString());
  rabitq::IvfRabitqIndex index;
  t0 = Clock::now();
  status = index.BuildFromClustering(source, clustering.centroids,
                                     clustering.assignments.data(),
                                     config.rabitq, config.ivf.metric);
  out->Layer("index.encode_s", SecondsSince(t0), "s");
  if (!status.ok()) out->Fail("traced encode failed: " + status.ToString());
}

void RunTracedPass(const TraceInputs& in, SpanRecorder* spans, RunResult* out) {
  rabitq::SearchEngine& engine = *in.engine;
  const rabitq::ShardedIndex& index = engine.index();
  const std::size_t dim = index.dim();
  KernelTotals totals;
  double lists = 0, estimated = 0, refined = 0, filtered = 0, reranked = 0;
  std::vector<double> codec_us;
  double req_bytes = 0, resp_bytes = 0;
  std::vector<double> untraced_wire;

  for (std::size_t n = 0; n < in.sample.size(); ++n) {
    const std::size_t qi = in.sample[n];
    const float* query = in.queries->Row(qi);
    SearchRequest request;
    request.query = query;
    request.options = in.options_for(qi);
    const std::uint64_t rid = n;

    // The same query without any span bookkeeping, for the overhead figure;
    // alternately before and after the traced call so neither side always
    // finds the caches warm.
    auto untraced = [&] {
      const auto t0 = Clock::now();
      const SearchResponse r =
          in.wire->Search(in.collection, query, dim, request.options);
      untraced_wire.push_back(MicrosBetween(t0, Clock::now()));
      if (!r.ok()) out->Fail("untraced wire search failed: " + r.status.ToString());
    };
    if (n % 2 == 0) untraced();
    const std::int32_t root = spans->Begin("query", -1, rid);
    SearchResponse wire_response;
    spans->Time("server.search", root, rid, [&] {
      wire_response = in.wire->Search(in.collection, query, dim, request.options);
    });
    SearchResponse async_response;
    spans->Time("engine.submit_async", root, rid,
                [&] { async_response = engine.SubmitAsync(request).get(); });
    SearchResponse sync_response;
    spans->Time("engine.search", root, rid,
                [&] { sync_response = engine.Search(request); });
    SearchResponse index_response;
    spans->Time("index.search", root, rid,
                [&] { index_response = index.Search(request); });
    const std::int32_t decompose = spans->Begin("core.decompose", root, rid);
    Decompose(index, query, request.options, rid, decompose, spans, &totals);
    spans->End(decompose);
    spans->End(root);
    if (n % 2 == 1) untraced();

    for (const SearchResponse* r :
         {&wire_response, &async_response, &sync_response, &index_response}) {
      if (!r->ok()) out->Fail("traced search failed: " + r->status.ToString());
    }
    // Every layer answers the same query identically at equal seeds.
    for (const SearchResponse* r : {&wire_response, &async_response, &index_response}) {
      const std::string diff = CheckIdentical(r->neighbors, sync_response.neighbors);
      if (!diff.empty()) out->Fail("layer parity: " + diff);
    }
    lists += static_cast<double>(index_response.stats.lists_probed);
    estimated += static_cast<double>(index_response.stats.codes_estimated);
    refined += static_cast<double>(index_response.stats.codes_refined);
    filtered += static_cast<double>(index_response.stats.codes_filtered);
    reranked += static_cast<double>(index_response.stats.candidates_reranked);

    // Codec: repeated so the figure is above clock resolution.
    std::vector<double> reps;
    std::size_t rq = 0, rs = 0;
    for (int rep = 0; rep < 16; ++rep) {
      reps.push_back(CodecRoundTrip(in.collection, query, dim, request.options,
                                    wire_response, &rq, &rs));
    }
    codec_us.push_back(Median(reps));
    req_bytes += static_cast<double>(rq);
    resp_bytes += static_cast<double>(rs);
  }

  const double count = static_cast<double>(std::max<std::size_t>(1, in.sample.size()));
  const double wire = MedianOf(*spans, "server.search");
  const double async = MedianOf(*spans, "engine.submit_async");
  const double sync = MedianOf(*spans, "engine.search");
  const double idx = MedianOf(*spans, "index.search");
  out->Layer("server.wire_overhead_us", wire - async, "us");
  out->Layer("server.request_bytes", req_bytes / count, "bytes");
  out->Layer("server.response_bytes", resp_bytes / count, "bytes");
  out->Layer("server.codec_us", Median(codec_us), "us");
  out->Layer("engine.queue_wait_us", async - sync, "us");
  out->Layer("engine.fanout_us", sync - idx, "us");
  out->Layer("index.search_us", idx, "us");
  out->Layer("index.lists_probed", lists / count, "count");
  out->Layer("index.codes_estimated", estimated / count, "count");
  out->Layer("index.codes_refined", refined / count, "count");
  out->Layer("index.codes_filtered", filtered / count, "count");
  out->Layer("index.candidates_reranked", reranked / count, "count");
  out->Layer("index.rerank_ratio", estimated > 0 ? reranked / estimated : 0.0,
             "ratio");
  out->Layer("core.rotate_us", MedianOf(*spans, "core.rotate"), "us");
  out->Layer("core.probe_order_us", MedianOf(*spans, "core.probe_order"), "us");
  out->Layer("core.prepare_query_us", MedianOf(*spans, "core.prepare_query"), "us");
  out->Layer("core.estimate_ns_per_code",
             totals.codes > 0 ? totals.estimate_ns / totals.codes : 0.0, "ns");
  out->Layer("quant.fastscan_ns_per_code",
             totals.codes > 0 ? totals.fastscan_ns / totals.codes : 0.0, "ns");
  out->Layer("linalg.exact_distance_ns",
             totals.distances > 0 ? totals.distance_ns / totals.distances : 0.0,
             "ns");
  out->Note("trace overhead: traced wire median " + std::to_string(wire) +
            " us vs untraced " + std::to_string(Median(untraced_wire)) +
            " us on the same queries; decomposition self time median " +
            std::to_string(Median(spans->SelfTimesOf("core.decompose"))) + " us");
  out->Layer("trace.overhead_us", wire - Median(untraced_wire), "us");

  // One engine-sized batch through InverseRotateBatch.
  {
    const std::size_t rows = std::min(in.engine_batch, in.queries->rows());
    rabitq::Matrix batch(rows, dim);
    for (std::size_t i = 0; i < rows; ++i) {
      std::copy_n(in.queries->Row(i), dim, batch.Row(i));
      if (index.metric() == rabitq::Metric::kCosine) {
        rabitq::NormalizeInPlace(batch.Row(i), dim);
      }
    }
    rabitq::Matrix rotated;
    std::vector<double> reps;
    for (int rep = 0; rep < 20; ++rep) {
      reps.push_back(spans->Time("core.rotate_batch", -1, 0, [&] {
        index.encoder().rotator().InverseRotateBatch(batch, &rotated);
      }));
    }
    out->Layer("core.rotate_batch_us", Median(reps), "us");
  }

  // Persistence of the same index.
  {
    std::filesystem::remove_all(in.save_dir);
    auto t0 = Clock::now();
    rabitq::Status st = engine.SaveSnapshot(in.save_dir);
    out->Layer("index.save_s", SecondsSince(t0), "s");
    if (!st.ok()) out->Fail("traced Save failed: " + st.ToString());
    rabitq::ShardedIndex loaded;
    t0 = Clock::now();
    st = loaded.Load(in.save_dir);
    if (!out->per_layer.count("index.load_s")) {
      out->Layer("index.load_s", SecondsSince(t0), "s");
    }
    if (!st.ok()) out->Fail("traced Load failed: " + st.ToString());
    std::filesystem::remove_all(in.save_dir);
  }
}

void RecordMutations(rabitq::SearchEngine* engine, const rabitq::Matrix& fresh,
                     SpanRecorder* spans, RunResult* out) {
  const std::size_t m = fresh.rows();
  std::vector<double> insert_us, update_us, delete_us;
  std::vector<std::uint32_t> added;
  for (std::size_t i = 0; i < m; ++i) {
    std::uint32_t id = 0;
    insert_us.push_back(spans->Time("engine.insert", -1, i, [&] {
      if (!engine->Insert(fresh.Row(i), &id).ok()) out->Fail("traced Insert failed");
    }));
    added.push_back(id);
  }
  for (std::size_t i = 0; i < m; ++i) {
    update_us.push_back(spans->Time("engine.update", -1, i, [&] {
      if (!engine->Update(added[i], fresh.Row(m - 1 - i)).ok()) {
        out->Fail("traced Update failed");
      }
    }));
  }
  for (std::size_t i = 0; i < m; ++i) {
    delete_us.push_back(spans->Time("engine.delete", -1, i, [&] {
      if (!engine->Delete(added[i]).ok()) out->Fail("traced Delete failed");
    }));
  }
  out->Layer("engine.insert_us", Median(insert_us), "us");
  out->Layer("engine.update_us", Median(update_us), "us");
  out->Layer("engine.delete_us", Median(delete_us), "us");
  // Compaction of the lists those deletes left tombstones in. Workloads
  // that compact in the background overwrite these with the served
  // engine's own figures.
  const rabitq::Status st = engine->CompactNow();
  if (!st.ok()) out->Fail("traced CompactNow failed: " + st.ToString());
  const std::string json = rabitq::obs::ExportJson(engine->SnapshotMetrics());
  out->Layer("engine.compactions", StatValue(json, "rabitq_lists_compacted_total"),
             "count");
  out->Layer("engine.compaction_pass_s",
             HistField(json, "rabitq_compaction_pass_seconds", "mean"), "s");
}

}  // namespace perfbench
