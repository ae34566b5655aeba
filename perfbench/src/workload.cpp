#include "workload.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

namespace perfbench {

std::vector<std::uint32_t> ProbedLists(const rabitq::ShardedIndex& index,
                                       Space space, const float* query,
                                       std::size_t nprobe) {
  const rabitq::Matrix& centroids = index.shard(0).centroids();
  const std::size_t dim = index.dim();
  std::vector<double> q(query, query + dim);
  if (space == Space::kCosine) {
    double norm = 0.0;
    for (double v : q) norm += v * v;
    norm = std::sqrt(norm);
    for (double& v : q) v /= norm;
  }
  std::vector<std::pair<double, std::uint32_t>> keys(centroids.rows());
  for (std::size_t l = 0; l < centroids.rows(); ++l) {
    const float* c = centroids.Row(l);
    double key = 0.0;
    for (std::size_t j = 0; j < dim; ++j) {
      key += space == Space::kL2 ? (q[j] - c[j]) * (q[j] - c[j]) : -q[j] * c[j];
    }
    keys[l] = {key, static_cast<std::uint32_t>(l)};
  }
  nprobe = std::min(nprobe, keys.size());
  std::partial_sort(keys.begin(), keys.begin() + nprobe, keys.end());
  std::vector<std::uint32_t> lists(nprobe);
  for (std::size_t p = 0; p < nprobe; ++p) lists[p] = keys[p].second;
  return lists;
}

double ProbedCeiling(const rabitq::ShardedIndex& index,
                     const std::vector<std::uint32_t>& probed,
                     const std::vector<Exact>& truth, std::size_t k) {
  const std::size_t want = std::min(k, truth.size());
  if (want == 0) return 1.0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < want; ++i) {
    std::uint32_t shard = 0;
    if (!index.TryShardOf(truth[i].id, &shard)) continue;
    const std::uint32_t list =
        index.shard(shard).list_of(index.local_of(truth[i].id));
    if (std::find(probed.begin(), probed.end(), list) != probed.end()) ++inside;
  }
  return static_cast<double>(inside) / static_cast<double>(want);
}

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 0x0A11));
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

std::vector<OpenLoopSample> RunOpenLoop(
    std::uint16_t port, std::size_t connections,
    const std::vector<double>& schedule,
    const std::function<rabitq::SearchResponse(std::size_t,
                                               rabitq::server::Client&)>& issue,
    std::string* error) {
  std::vector<OpenLoopSample> samples(schedule.size());
  std::vector<rabitq::server::Client> clients(connections);
  for (auto& c : clients) {
    const rabitq::Status st = c.Connect("127.0.0.1", port);
    if (!st.ok()) {
      *error = "connect: " + st.ToString();
      return {};
    }
  }
  // Start slightly in the future so every thread is parked before the first
  // request is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < schedule.size(); i += connections) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(schedule[i]));
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        OpenLoopSample& s = samples[i];
        s.send_ns = NanosOf(sent);
        s.response = issue(i, clients[c]);
        const Clock::time_point done = Clock::now();
        s.latency_us = MicrosBetween(due, done);
        s.service_us = MicrosBetween(sent, done);
        s.late_us = MicrosBetween(due, sent);
      }
    });
  }
  for (auto& t : threads) t.join();
  return samples;
}

WriteModel::WriteModel(const rabitq::Matrix& base, std::size_t max_adds)
    : rows(base.rows() + max_adds, base.cols()),
      live(base.rows() + max_adds, 0),
      next_id(static_cast<std::uint32_t>(base.rows())),
      deleted_at(new std::atomic<std::int64_t>[base.rows() + max_adds]) {
  std::copy_n(base.data(), base.size(), rows.data());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    deleted_at[i].store(std::numeric_limits<std::int64_t>::max());
  }
  for (std::size_t i = 0; i < base.rows(); ++i) {
    live[i] = 1;
    live_ids.push_back(static_cast<std::uint32_t>(i));
  }
}

WriteFigures RunWrites(std::size_t ops, Shape shape, std::uint64_t seed,
                       std::uint64_t stream, double pace_per_s,
                       WriteModel* model, const WriteFn& apply, RunResult* out) {
  const std::size_t dim = model->rows.cols();
  WriteFigures figures;
  std::mt19937_64 rng(Mix(seed, stream));
  rabitq::Matrix payloads;
  Clock::time_point window_start;
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; j < ops; ++j) {
    if (pace_per_s > 0) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(static_cast<double>(j) / pace_per_s)));
    }
    if (j % kWriteWindow == 0) {
      // Payloads of the next window, generated outside its timed span.
      if (j > 0) {
        const double s = SecondsSince(window_start);
        figures.elapsed_s += s;
        figures.window_rate.push_back(static_cast<double>(kWriteWindow) / s);
      }
      payloads = Generate(shape, kWriteWindow, dim, seed, Mix(stream, j / kWriteWindow));
      window_start = Clock::now();
    }
    const float* payload = payloads.Row(j % kWriteWindow);
    const std::uint64_t draw = rng() % 100;
    WriteOp op = draw < 35 ? WriteOp::kAdd : draw < 60 ? WriteOp::kUpdate : WriteOp::kDelete;
    if (model->live_ids.empty()) op = WriteOp::kAdd;
    const std::size_t pick = model->live_ids.empty() ? 0 : rng() % model->live_ids.size();
    const std::uint32_t id = op == WriteOp::kAdd ? 0 : model->live_ids[pick];
    std::uint32_t new_id = 0;
    const auto t0 = Clock::now();
    const rabitq::Status s = apply(op, id, payload, &new_id);
    const auto t1 = Clock::now();
    figures.latency_us.push_back(MicrosBetween(t0, t1));
    if (!s.ok()) {
      ++figures.failed;
      continue;
    }
    switch (op) {
      case WriteOp::kAdd:
        if (new_id != model->next_id) {
          out->Fail("Add returned id " + std::to_string(new_id) + ", expected " +
                    std::to_string(model->next_id));
          return figures;
        }
        std::copy_n(payload, dim, model->rows.Row(new_id));
        model->live[new_id] = 1;
        model->live_ids.push_back(new_id);
        model->next_id = new_id + 1;
        break;
      case WriteOp::kUpdate:
        std::copy_n(payload, dim, model->rows.Row(id));
        break;
      case WriteOp::kDelete:
        model->deleted_at[id].store(NanosOf(t1));
        model->live[id] = 0;
        model->live_ids[pick] = model->live_ids.back();
        model->live_ids.pop_back();
        break;
    }
  }
  if (ops > 0) {
    const double s = SecondsSince(window_start);
    figures.elapsed_s += s;
    const std::size_t tail = ops % kWriteWindow == 0 ? kWriteWindow : ops % kWriteWindow;
    figures.window_rate.push_back(static_cast<double>(tail) / s);
  }
  out->attempted += figures.latency_us.size();
  out->failed += figures.failed;
  return figures;
}

void WriteFigures::Append(const WriteFigures& later) {
  latency_us.insert(latency_us.end(), later.latency_us.begin(), later.latency_us.end());
  window_rate.insert(window_rate.end(), later.window_rate.begin(), later.window_rate.end());
  failed += later.failed;
  elapsed_s += later.elapsed_s;
}

void RecordWriteMetrics(const WriteFigures& figures, RunResult* out) {
  out->E2E("write_ops_per_s", Median(figures.window_rate), "ops/s");
  out->E2E("write_p95_us", WindowedQuantile(figures.latency_us, 0.95), "us");
  out->Note("writes: p99 " + std::to_string(WindowedQuantile(figures.latency_us, 0.99)) +
            " us over " + std::to_string(figures.latency_us.size()) + " writes");
}

PersistFigures PersistCycles(int cycles, const std::function<rabitq::Status()>& snapshot,
                             const std::function<rabitq::Status()>& drop,
                             const std::function<rabitq::Status()>& restore,
                             RunResult* out) {
  std::vector<double> snap_s, restore_s;
  auto attempt = [&](const char* what, const std::function<rabitq::Status()>& f) {
    const auto t0 = Clock::now();
    const rabitq::Status s = f();
    const double seconds = SecondsSince(t0);
    ++out->attempted;
    if (!s.ok()) {
      ++out->failed;
      out->Note(std::string(what) + " failed: " + s.ToString());
    }
    return seconds;
  };
  for (int c = 0; c < cycles; ++c) {
    snap_s.push_back(attempt("snapshot", snapshot));
    attempt("drop", drop);
    restore_s.push_back(attempt("restore", restore));
  }
  return PersistFigures{Median(snap_s), Median(restore_s)};
}

void WritePersistRounds(int rounds, std::size_t burst, Shape shape,
                        std::uint64_t seed, WriteModel* model,
                        const WriteFn& apply,
                        const std::function<rabitq::Status()>& snapshot,
                        const std::function<rabitq::Status()>& drop,
                        const std::function<rabitq::Status()>& restore,
                        const std::function<std::vector<Result>()>& answers,
                        RunResult* out) {
  WriteFigures writes;
  std::vector<double> snap_s, restore_s;
  for (int r = 0; r < rounds; ++r) {
    writes.Append(RunWrites(burst, shape, seed, 30 + static_cast<std::uint64_t>(r), 0.0,
                            model, apply, out));
    const std::vector<Result> before = answers();
    const PersistFigures round = PersistCycles(1, snapshot, drop, restore, out);
    snap_s.push_back(round.snapshot_s);
    restore_s.push_back(round.restore_s);
    const std::vector<Result> after = answers();
    for (std::size_t q = 0; q < before.size() && q < after.size(); ++q) {
      const std::string e = CheckIdentical(before[q], after[q]);
      if (!e.empty()) {
        out->Fail("after restore round " + std::to_string(r) + ", query " +
                  std::to_string(q) + ": " + e);
      }
    }
  }
  RecordWriteMetrics(writes, out);
  out->E2E("snapshot_s", Median(snap_s), "s");
  out->E2E("restore_s", Median(restore_s), "s");
}

std::vector<ClosedLoopSample> RunClosedLoop(
    std::uint16_t port, std::size_t clients, double seconds,
    const std::function<rabitq::SearchResponse(std::size_t,
                                               rabitq::server::Client&)>& issue,
    RunResult* out) {
  std::vector<std::vector<ClosedLoopSample>> per_client(clients);
  std::vector<std::uint8_t> unconnected(clients, 0);
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      rabitq::server::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        unconnected[c] = 1;
        return;
      }
      for (std::size_t i = c; Clock::now() < stop; i += clients) {
        rabitq::SearchResponse r = issue(i, client);
        per_client[c].push_back(ClosedLoopSample{i, SecondsSince(start), std::move(r)});
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = SecondsSince(start);
  std::vector<ClosedLoopSample> samples;
  std::vector<double> completions;
  for (std::size_t c = 0; c < clients; ++c) {
    if (unconnected[c]) out->Fail("closed-loop client could not connect");
    for (auto& s : per_client[c]) {
      ++out->attempted;
      if (!s.response.ok()) ++out->failed;
      completions.push_back(s.done_s);
      samples.push_back(std::move(s));
    }
  }
  out->E2E("search_qps", WindowedRate(completions, elapsed, 1.0), "queries/s");
  return samples;
}

void RecordSearchLatency(const std::vector<double>& latency_us, RunResult* out) {
  out->E2E("search_p50_us", WindowedQuantile(latency_us, 0.5), "us");
  out->E2E("search_p95_us", WindowedQuantile(latency_us, 0.95), "us");
  // p99 is reported, not gated: on a shared virtual machine its run-to-run
  // spread is far above any usable bound (see the README).
  out->Note("search latency over " + std::to_string(latency_us.size()) +
            " samples: p99 " + std::to_string(Quantile(latency_us, 0.99)) +
            " us, p99.9 " + std::to_string(Quantile(latency_us, 0.999)) + " us");
  if (latency_us.size() < 1000) {
    out->Fail("only " + std::to_string(latency_us.size()) +
              " search latencies; the windowed p95 needs at least 1000");
  }
}

std::string CollectionStats(rabitq::server::Client& client,
                            const std::string& name) {
  std::string payload;
  if (!client.Stats(name, /*format=*/0, &payload).ok()) return "";
  return payload;
}

std::size_t LoadThreads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
