// The traced pass: replays a sample of a workload's queries one at a time
// through each layer's public entry point (wire, SearchEngine::SubmitAsync,
// SearchEngine::Search, ShardedIndex::Search, then the core and quant
// kernels by hand), recording a span around every call, and derives the
// per-layer metrics from those spans.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "engine/search_engine.h"
#include "server/client.h"
#include "spans.h"

namespace perfbench {

struct TraceInputs {
  /// In-process engine over the same collection configuration and data the
  /// workload serves.
  rabitq::SearchEngine* engine = nullptr;
  /// Connected client and collection name of the served copy.
  rabitq::server::Client* wire = nullptr;
  std::string collection;
  const rabitq::Matrix* queries = nullptr;
  /// Query rows replayed, in order.
  std::vector<std::size_t> sample;
  /// Options of replayed query i (seed and filter included).
  std::function<rabitq::SearchOptions(std::size_t)> options_for;
  /// Rows of the batch fed to one InverseRotateBatch (the engine's batch).
  std::size_t engine_batch = 32;
  /// Where ShardedIndex::Save / Load are timed.
  std::string save_dir;
};

/// Runs the replay and records every per-layer metric it yields into
/// `out->per_layer`, with the traced-pass overhead (trace.overhead_us).
/// Read-only, apart from a Save/Load round of the engine's index.
void RunTracedPass(const TraceInputs& in, SpanRecorder* spans, RunResult* out);

/// Times in-process Insert, Update and Delete of `fresh`'s rows on `engine`
/// (engine.insert_us / update_us / delete_us), then CompactNow
/// (engine.compactions, engine.compaction_pass_s). Leaves the inserted ids
/// deleted.
void RecordMutations(rabitq::SearchEngine* engine, const rabitq::Matrix& fresh,
                     SpanRecorder* spans, RunResult* out);

/// Mean of each engine stage histogram in a JSON metrics export, recorded as
/// engine.stage.<stage>_us; returns their sum.
double RecordStageMeans(const std::string& stats_json, RunResult* out);

/// Sum over the engine's stages of each stage's mean over the queries traced
/// between two JSON metrics exports of the same engine; `traced` receives
/// the number of queries traced in between.
double StageSumBetween(const std::string& before_json,
                       const std::string& after_json, double* traced);

/// Times the two halves of Build on `data`: RunKMeans (cluster.kmeans_s) and
/// encoding against its clustering (index.encode_s).
void RecordBuildSplit(const rabitq::Matrix& data,
                      const rabitq::ShardedConfig& config, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
