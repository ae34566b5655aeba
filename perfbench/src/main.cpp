// Benchmark program: runs one workload and prints one JSON line
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced pass (--trace 1). Notes and check failures go to stderr.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --server PATH --work DIR --out DIR

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workload.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"wire_search_l2", "batch_scan_hidim",
                                  "wire_churn_cosine"};

const char* const kEndToEnd[] = {
    "setup_s",         "search_p50_us", "search_p95_us",
    "search_qps",      "recall_at_10",  "write_ops_per_s",
    "write_p95_us",    "snapshot_s",    "restore_s",
    "snapshot_bytes_per_vector",        "peak_rss_mb"};

const char* const kPerLayer[] = {
    "server.wire_overhead_us", "server.request_bytes", "server.response_bytes",
    "server.codec_us", "engine.queue_wait_us", "engine.fanout_us",
    "engine.batch_size_mean", "engine.stage.queue_wait_us",
    "engine.stage.preprocess_us", "engine.stage.probe_order_us",
    "engine.stage.scan_us", "engine.stage.rerank_us", "engine.stage.merge_us",
    "engine.insert_us", "engine.update_us", "engine.delete_us",
    "engine.compactions", "engine.compaction_pass_s", "index.search_us",
    "index.lists_probed", "index.codes_estimated", "index.codes_refined",
    "index.codes_filtered", "index.candidates_reranked", "index.rerank_ratio",
    "index.save_s", "index.load_s", "cluster.kmeans_s", "index.encode_s",
    "core.rotate_us", "core.rotate_batch_us", "core.probe_order_us",
    "core.prepare_query_us", "core.estimate_ns_per_code",
    "quant.fastscan_ns_per_code", "linalg.exact_distance_ns",
    "core.eps0_violation_rate", "trace.overhead_us"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server PATH --work DIR --out DIR\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(value.c_str());
    else if (key == "--trace") opt.trace = value == "1";
    else if (key == "--server") opt.server_binary = value;
    else if (key == "--work") opt.work_dir = value;
    else if (key == "--out") opt.out_dir = value;
    else return Usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.server_binary.empty() ||
      opt.work_dir.empty() || opt.out_dir.empty() || opt.seconds <= 0) {
    return Usage();
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known) {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  opt.work_dir += "/" + opt.workload + "-" + std::to_string(::getpid());
  std::filesystem::create_directories(opt.work_dir);
  std::filesystem::create_directories(opt.out_dir);

  RunResult result;
  if (opt.workload == "wire_search_l2") result = RunWireSearchL2(opt);
  else if (opt.workload == "batch_scan_hidim") result = RunBatchScanHidim(opt);
  else result = RunWireChurnCosine(opt);
  std::filesystem::remove_all(opt.work_dir);

  const auto& metrics = opt.trace ? result.per_layer : result.end_to_end;
  const std::vector<std::string> names =
      opt.trace ? std::vector<std::string>(std::begin(kPerLayer), std::end(kPerLayer))
                : std::vector<std::string>(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const std::string& name : names) {
    if (metrics.count(name) == 0) result.Fail("metric not measured: " + name);
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics.find(name);
    if (it == metrics.end()) continue;
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(it->second.value) +
            ", \"unit\": " + JsonString(it->second.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
