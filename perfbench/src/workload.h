// What the three workloads share: run options, the open-loop generator, the
// probed-list recall ceiling and small wire helpers.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "data.h"
#include "index/sharded.h"
#include "server/client.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// rabitq_server binary built from the checkout.
  std::string server_binary;
  /// Scratch directory of this run (snapshot roots, saved indexes).
  std::string work_dir;
  /// Where the traced pass writes its spans.
  std::string out_dir;
};

RunResult RunWireSearchL2(const Options& options);
RunResult RunBatchScanHidim(const Options& options);
RunResult RunWireChurnCosine(const Options& options);

/// Slack of the recall floor below the probed-list ceiling. At the library's
/// eps0 = 1.9 the error bound fails for far fewer than 1% of codes, and a
/// true neighbour inside the probed lists is lost only through such a
/// failure, so recall may fall at most this far below the ceiling.
inline constexpr double kRecallSlack = 0.01;

/// Lists a query probes: the first `nprobe` centroids by the index's probe
/// key (squared L2, or negated inner product of the unit query under
/// cosine), computed here in double precision from the centroids.
std::vector<std::uint32_t> ProbedLists(const rabitq::ShardedIndex& index,
                                       Space space, const float* query,
                                       std::size_t nprobe);

/// Share of `truth` whose ids sit in lists `probed` of `index`.
double ProbedCeiling(const rabitq::ShardedIndex& index,
                     const std::vector<std::uint32_t>& probed,
                     const std::vector<Exact>& truth, std::size_t k);

/// Arrival offsets (seconds) of a Poisson process at `rate` per second over
/// `seconds`, drawn from `seed`.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/// One open-loop request as observed by the client.
struct OpenLoopSample {
  double latency_us = 0.0;  // completion - due time
  double service_us = 0.0;  // completion - send time
  double late_us = 0.0;     // send - due time
  std::int64_t send_ns = 0;
  rabitq::SearchResponse response;
};

/// Sends request i of `schedule` at its due time from one of `connections`
/// client connections (request i on connection i mod connections) and
/// records what each saw. `issue(i, client)` performs request i.
std::vector<OpenLoopSample> RunOpenLoop(
    std::uint16_t port, std::size_t connections,
    const std::vector<double>& schedule,
    const std::function<rabitq::SearchResponse(std::size_t,
                                               rabitq::server::Client&)>& issue,
    std::string* error);

/// The benchmark's model of a mutable collection: the current vector of
/// every id and which ids are live. Ids are assigned densely in Add order.
struct WriteModel {
  WriteModel(const rabitq::Matrix& base, std::size_t max_adds);
  rabitq::Matrix rows;
  std::vector<std::uint8_t> live;
  std::vector<std::uint32_t> live_ids;
  std::uint32_t next_id = 0;
  /// Steady-clock ns at which each id's delete was acknowledged (max: never).
  std::unique_ptr<std::atomic<std::int64_t>[]> deleted_at;
  bool deleted_before(std::uint32_t id, std::int64_t ns) const {
    return id >= rows.rows() || deleted_at[id].load() < ns;
  }
};

enum class WriteOp : std::uint8_t { kAdd, kUpdate, kDelete };

/// Applies one write to the program: Add(vec) returning the new id through
/// `new_id`, Update(id, vec) or Delete(id).
using WriteFn = std::function<rabitq::Status(WriteOp op, std::uint32_t id,
                                             const float* vec,
                                             std::uint32_t* new_id)>;

struct WriteFigures {
  std::vector<double> latency_us;  // per write, send to acknowledgement
  std::vector<double> window_rate;  // writes per second of each 1024-write window
  std::size_t failed = 0;
  double elapsed_s = 0.0;           // writing time, payload generation excluded

  /// Appends a later burst's figures (time order kept).
  void Append(const WriteFigures& later);
};

/// Writes per window of RunWrites (also the payload generation chunk).
inline constexpr std::size_t kWriteWindow = 1024;

/// Runs a fixed seeded sequence of `ops` writes (35% Add, 25% Update, 40%
/// Delete of a uniformly chosen live id; payloads drawn from `shape`),
/// keeping `model` in step and counting them in `out`. Closed loop when
/// `pace_per_s` is 0, else write j is sent no earlier than j / pace_per_s
/// seconds after the start. Stream `stream` separates sequences of one seed.
/// `model` must have room for `ops` adds.
WriteFigures RunWrites(std::size_t ops, Shape shape, std::uint64_t seed,
                       std::uint64_t stream, double pace_per_s,
                       WriteModel* model, const WriteFn& apply, RunResult* out);

/// write_ops_per_s (median window rate) and write_p95_us (WindowedQuantile)
/// of a closed-loop RunWrites; the p99 goes to the notes.
void RecordWriteMetrics(const WriteFigures& figures, RunResult* out);

/// Median times of `cycles` snapshot / drop / restore rounds; the restored
/// state is what callers verify afterwards.
struct PersistFigures {
  double snapshot_s = 0.0;
  double restore_s = 0.0;
};
PersistFigures PersistCycles(int cycles, const std::function<rabitq::Status()>& snapshot,
                             const std::function<rabitq::Status()>& drop,
                             const std::function<rabitq::Status()>& restore,
                             RunResult* out);

/// Alternates `rounds` closed-loop write bursts of `burst` writes (RunWrites
/// stream 30 + r) with snapshot / drop / restore rounds, so a host stall of
/// a second or two moves few write windows and few rounds. Each round reads
/// `answers()` after its writes and again after its restore; the two must be
/// identical. Records write_ops_per_s, write_p95_us (over every burst),
/// snapshot_s and restore_s (medians over the rounds).
void WritePersistRounds(int rounds, std::size_t burst, Shape shape,
                        std::uint64_t seed, WriteModel* model,
                        const WriteFn& apply,
                        const std::function<rabitq::Status()>& snapshot,
                        const std::function<rabitq::Status()>& drop,
                        const std::function<rabitq::Status()>& restore,
                        const std::function<std::vector<Result>()>& answers,
                        RunResult* out);

/// Records search_p50_us and search_p95_us from time-ordered latencies
/// (WindowedQuantile), and notes p99 and p99.9 with the sample count. Fails
/// the run when the sample is too small for a windowed p95.
void RecordSearchLatency(const std::vector<double>& latency_us, RunResult* out);

/// One closed-loop request: its index, completion time (s since the phase
/// began) and answer.
struct ClosedLoopSample {
  std::size_t index = 0;
  double done_s = 0.0;
  rabitq::SearchResponse response;
};

/// `clients` connections each send requests i = c, c + clients, ... back to
/// back for `seconds`. Counts every request in `out`, records search_qps
/// (median of 1 s window rates) and returns every answer.
std::vector<ClosedLoopSample> RunClosedLoop(
    std::uint16_t port, std::size_t clients, double seconds,
    const std::function<rabitq::SearchResponse(std::size_t,
                                               rabitq::server::Client&)>& issue,
    RunResult* out);

/// Collection stats JSON over the wire ("" on failure).
std::string CollectionStats(rabitq::server::Client& client,
                            const std::string& name);

/// Processors this process may run on (what `nproc` prints).
std::size_t LoadThreads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
