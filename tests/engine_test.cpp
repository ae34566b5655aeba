// Tests for the concurrent query-serving engine: batched execution parity
// with the sequential search path (bit-identical results), multi-threaded
// stress through both SearchBatch and SubmitAsync, overlapping batches (a
// blocked query does not hold up the next one; writers are not starved by
// overlapping readers), concurrent insert+search coordination, stats
// accounting, and error propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "engine/search_engine.h"
#include "gate.h"
#include "index/ivf.h"
#include "index/sharded.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

Matrix ClusteredData(std::size_t n, std::size_t dim, std::size_t clusters,
                     std::uint64_t seed) {
  Rng rng(seed);
  Matrix centers(clusters, dim);
  for (std::size_t i = 0; i < centers.size(); ++i) {
    centers.data()[i] = static_cast<float>(rng.Gaussian()) * 8.0f;
  }
  Matrix data(n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.UniformInt(clusters);
    for (std::size_t j = 0; j < dim; ++j) {
      data.At(i, j) = centers.At(c, j) + static_cast<float>(rng.Gaussian());
    }
  }
  return data;
}

IvfRabitqIndex BuildIndex(const Matrix& data, std::size_t num_lists) {
  IvfRabitqIndex index;
  IvfConfig ivf;
  ivf.num_lists = num_lists;
  EXPECT_TRUE(index.Build(data, ivf, RabitqConfig{}).ok());
  return index;
}

// Neighbor lists must agree exactly: same ids, bit-identical distances.
void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << "rank " << i;
    EXPECT_EQ(a[i].first, b[i].first) << "rank " << i;
  }
}

class EngineTestFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 2000;
  static constexpr std::size_t kDim = 32;
  static constexpr std::size_t kNumQueries = 48;
  static constexpr std::uint64_t kSeedBase = 42;

  void SetUp() override {
    data_ = ClusteredData(kN, kDim, 12, 7);
    queries_ = ClusteredData(kNumQueries, kDim, 12, 8);
    params_.k = 10;
    params_.nprobe = 8;
  }

  // The sequential reference: the paper's one-query-at-a-time protocol with
  // the same per-query seed stream the engine uses.
  std::vector<std::vector<Neighbor>> SequentialReference(
      const IvfRabitqIndex& index) {
    std::vector<std::vector<Neighbor>> ref(kNumQueries);
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      EXPECT_TRUE(index
                      .Search(queries_.Row(i), params_,
                              SearchEngine::QuerySeed(kSeedBase, i), &ref[i])
                      .ok());
    }
    return ref;
  }

  Matrix data_;
  Matrix queries_;
  IvfSearchParams params_;
};

TEST_F(EngineTestFixture, SearchBatchMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);

  EngineConfig config;
  config.num_threads = 4;
  SearchEngine engine(std::move(index), config);
  std::vector<std::vector<Neighbor>> results;
  IvfSearchStats agg;
  ASSERT_TRUE(engine
                  .SearchBatch(queries_.data(), kNumQueries, params_,
                               kSeedBase, &results, &agg)
                  .ok());
  ASSERT_EQ(results.size(), kNumQueries);
  for (std::size_t i = 0; i < kNumQueries; ++i) {
    ExpectSameNeighbors(results[i], reference[i]);
  }
  EXPECT_GT(agg.codes_estimated, 0u);
  EXPECT_GT(agg.lists_probed, 0u);
}

TEST_F(EngineTestFixture, BatchSizeOneMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);
  SearchEngine engine(std::move(index));
  for (std::size_t i = 0; i < 5; ++i) {
    std::vector<std::vector<Neighbor>> results;
    ASSERT_TRUE(engine
                    .SearchBatch(queries_.Row(i), 1, params_,
                                 /*seed_base=*/0, &results)
                    .ok());
    // Seed parity: batch index 0 under base QuerySeed must replay query i's
    // sequential seed, so search with the matching explicit stream.
    std::vector<Neighbor> ref;
    ASSERT_TRUE(engine.index()
                    .Search(queries_.Row(i), params_,
                            SearchEngine::QuerySeed(0, 0), &ref)
                    .ok());
    ExpectSameNeighbors(results[0], ref);
  }
}

// N producer threads x M queries each through the async micro-batching
// scheduler; every result must be bit-identical to the sequential path.
TEST_F(EngineTestFixture, MultiThreadedStressMatchesSequentialSearch) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);

  EngineConfig config;
  config.num_threads = 4;
  config.max_batch = 8;
  SearchEngine engine(std::move(index), config);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kRounds = 3;  // every producer submits all queries
  std::vector<std::vector<std::future<EngineResult>>> futures(
      kProducers * kRounds);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        auto& slot = futures[p * kRounds + r];
        slot.reserve(kNumQueries);
        for (std::size_t i = 0; i < kNumQueries; ++i) {
          // Explicit per-query seeds: results must not depend on how the
          // scheduler batches the interleaved submissions.
          slot.push_back(engine.SubmitAsync(
              queries_.Row(i), params_,
              SearchEngine::QuerySeed(kSeedBase, i)));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  for (std::size_t s = 0; s < futures.size(); ++s) {
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      EngineResult result = futures[s][i].get();
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      ExpectSameNeighbors(result.neighbors, reference[i]);
    }
  }
  const EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, kProducers * kRounds * kNumQueries);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batches, stats.queries);
}

// Concurrent SearchBatch callers (the sync API) from several threads.
TEST_F(EngineTestFixture, ConcurrentSearchBatchCallers) {
  IvfRabitqIndex index = BuildIndex(data_, 16);
  const auto reference = SequentialReference(index);
  EngineConfig config;
  config.num_threads = 2;
  SearchEngine engine(std::move(index), config);

  constexpr std::size_t kCallers = 4;
  std::vector<Status> statuses(kCallers);
  std::vector<std::vector<std::vector<Neighbor>>> results(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      statuses[c] = engine.SearchBatch(queries_.data(), kNumQueries, params_,
                                       kSeedBase, &results[c]);
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_TRUE(statuses[c].ok()) << statuses[c].ToString();
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      ExpectSameNeighbors(results[c][i], reference[i]);
    }
  }
}

// Insert runs concurrently with a search workload: no crashes, every search
// succeeds, inserts all land, and inserted vectors become findable.
TEST_F(EngineTestFixture, ConcurrentInsertAndSearch) {
  SearchEngine engine(BuildIndex(data_, 16));
  constexpr std::size_t kInserts = 40;
  const Matrix new_vectors = ClusteredData(kInserts, kDim, 12, 99);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> searches_served{0};
  std::vector<std::thread> searchers;
  for (std::size_t t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      std::size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        EngineResult result =
            engine.SubmitAsync(queries_.Row(i % kNumQueries), params_).get();
        ASSERT_TRUE(result.status.ok()) << result.status.ToString();
        ASSERT_FALSE(result.neighbors.empty());
        searches_served.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  std::vector<std::uint32_t> inserted_ids(kInserts);
  for (std::size_t i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(engine.Insert(new_vectors.Row(i), &inserted_ids[i]).ok());
  }
  // The inserts can outrun the first async search; keep the searchers alive
  // until at least one result lands so the >0 assertion below is not a race
  // against the searchers' start. Deadline-bounded so a searcher regression
  // fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (searches_served.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : searchers) t.join();

  EXPECT_EQ(engine.size(), kN + kInserts);
  EXPECT_EQ(engine.epoch(), kInserts);
  EXPECT_GT(searches_served.load(), 0u);

  // Every inserted vector is now its own nearest neighbor at full probe.
  IvfSearchParams full = params_;
  full.k = 1;
  full.nprobe = engine.index().num_lists();
  for (std::size_t i = 0; i < kInserts; ++i) {
    EngineResult result =
        engine.SubmitAsync(new_vectors.Row(i), full).get();
    ASSERT_TRUE(result.status.ok());
    ASSERT_EQ(result.neighbors.size(), 1u);
    EXPECT_EQ(result.neighbors[0].second, inserted_ids[i]);
    EXPECT_NEAR(result.neighbors[0].first, 0.0f, 1e-5f);
  }
}

// Batches overlap on the pool: with one query parked at a gate inside its
// scan, a second async query still runs on the other worker and resolves
// while the gate is closed.
TEST_F(EngineTestFixture, AsyncQueryOverlapsABlockedQuery) {
  Gate gate;  // outlives the engine, whose drain waits for parked workers
  EngineConfig config;
  config.num_threads = 2;
  SearchEngine engine(BuildIndex(data_, 16), config);
  OpenGateOnExit open_on_exit{&gate};

  SearchRequest blocker;
  blocker.query = queries_.Row(0);
  blocker.options = params_;
  blocker.options.filter =
      IdFilter::FromPredicate(&Gate::BlockUntilOpen, &gate);
  std::future<SearchResponse> blocked = engine.SubmitAsync(blocker);
  ASSERT_TRUE(gate.AwaitEntered(1));

  SearchRequest request;
  request.query = queries_.Row(1);
  request.options = params_;
  request.options.seed = SearchEngine::QuerySeed(kSeedBase, 1);
  std::future<SearchResponse> second = engine.SubmitAsync(request);
  ASSERT_EQ(second.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "the second query waited for the blocked one";
  EXPECT_FALSE(gate.open);
  const SearchResponse response = second.get();
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  ExpectSameNeighbors(response.neighbors,
                      engine.index().Search(request).neighbors);

  gate.Open();
  EXPECT_TRUE(blocked.get().ok());
}

// Overlapping async batches keep the determinism contract: 4 producers
// submitting to a 3-shard engine, with and without an allow-bitmap filter,
// get results bit-identical to the sequential sharded search at equal seeds.
TEST_F(EngineTestFixture, AsyncShardedParityWithAndWithoutFilter) {
  ShardedConfig sharded;
  sharded.num_shards = 3;
  sharded.ivf.num_lists = 16;
  ShardedIndex index;
  ASSERT_TRUE(index.Build(data_, sharded).ok());

  // Allow two ids in three.
  std::vector<std::uint64_t> allow((kN + 63) / 64, 0);
  for (std::size_t id = 0; id < kN; ++id) {
    if (id % 3 != 0) allow[id / 64] |= std::uint64_t{1} << (id % 64);
  }
  auto make_request = [&](std::size_t i, bool filtered) {
    SearchRequest request;
    request.query = queries_.Row(i);
    request.options = params_;
    request.options.seed = SearchEngine::QuerySeed(kSeedBase, i);
    if (filtered) {
      request.options.filter = IdFilter::AllowBitmap(allow.data(), kN);
    }
    return request;
  };
  std::vector<std::vector<Neighbor>> reference[2];
  for (int filtered = 0; filtered < 2; ++filtered) {
    for (std::size_t i = 0; i < kNumQueries; ++i) {
      const SearchResponse response =
          index.Search(make_request(i, filtered != 0));
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      reference[filtered].push_back(response.neighbors);
    }
  }

  EngineConfig config;
  config.num_threads = 4;
  config.max_batch = 8;
  SearchEngine engine(std::move(index), config);
  constexpr std::size_t kProducers = 4;
  std::vector<std::vector<std::future<SearchResponse>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < 2 * kNumQueries; ++i) {
        futures[p].push_back(
            engine.SubmitAsync(make_request(i / 2, (i + p) % 2 != 0)));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (std::size_t p = 0; p < kProducers; ++p) {
    for (std::size_t i = 0; i < 2 * kNumQueries; ++i) {
      ASSERT_EQ(futures[p][i].wait_for(std::chrono::seconds(30)),
                std::future_status::ready);
      const SearchResponse response = futures[p][i].get();
      ASSERT_TRUE(response.ok()) << response.status.ToString();
      EXPECT_EQ(response.shards_ok, 3u);
      ExpectSameNeighbors(response.neighbors,
                          reference[(i + p) % 2][i / 2]);
    }
  }
  EXPECT_EQ(engine.Stats().queries, kProducers * 2 * kNumQueries);
}

// Writers make progress while async batches overlap. Every batch holds its
// shards' read locks, so with batches overlapping back to back a lock that
// lets new readers overtake a waiting writer could starve Insert, Update and
// Delete indefinitely. Pinned deterministically for each mutation: a gated
// query holds the read lock, the mutation starts waiting for it, and from
// then on a new search must queue behind the mutation instead of
// overtaking it.
TEST_F(EngineTestFixture, WritersProgressWhileAsyncSearchesOverlap) {
  const Matrix fresh = ClusteredData(2, kDim, 12, 123);
  const char* const kMutations[] = {"Insert", "Update", "Delete"};
  for (int op = 0; op < 3; ++op) {
    SCOPED_TRACE(kMutations[op]);
    Gate gate;  // outlives the engine, whose drain waits for parked workers
    EngineConfig config;
    config.num_threads = 2;
    SearchEngine engine(BuildIndex(data_, 16), config);
    OpenGateOnExit open_on_exit{&gate};

    SearchRequest blocker;
    blocker.query = queries_.Row(0);
    blocker.options = params_;
    blocker.options.filter =
        IdFilter::FromPredicate(&Gate::BlockUntilOpen, &gate);
    std::future<SearchResponse> blocked = engine.SubmitAsync(blocker);
    ASSERT_TRUE(gate.AwaitEntered(1));

    std::promise<Status> mutation;
    std::future<Status> mutated = mutation.get_future();
    std::thread writer([&] {
      switch (op) {
        case 0: mutation.set_value(engine.Insert(fresh.Row(0))); break;
        case 1: mutation.set_value(engine.Update(5, fresh.Row(1))); break;
        default: mutation.set_value(engine.Delete(5)); break;
      }
    });

    // Until the writer waits, probes overlap the gated query and resolve.
    // Once it waits, a probe must stay queued behind it; a lock that lets
    // readers overtake a waiting writer resolves every probe and fails.
    SearchRequest probe;
    probe.query = queries_.Row(1);
    probe.options = params_;
    std::future<SearchResponse> queued;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < give_up) {
      std::future<SearchResponse> next = engine.SubmitAsync(probe);
      if (next.wait_for(std::chrono::milliseconds(100)) !=
          std::future_status::ready) {
        queued = std::move(next);
        break;
      }
      EXPECT_TRUE(next.get().ok());
    }
    EXPECT_TRUE(queued.valid()) << "new searches overtook a waiting writer";
    EXPECT_EQ(mutated.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);

    gate.Open();
    if (mutated.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      // A deadlocked writer cannot be joined: fail loudly, not by hanging.
      std::fprintf(stderr, "%s never completed\n", kMutations[op]);
      std::abort();
    }
    writer.join();
    EXPECT_TRUE(mutated.get().ok());
    EXPECT_TRUE(blocked.get().ok());
    if (queued.valid()) {
      EXPECT_TRUE(queued.get().ok());
    }
    EXPECT_EQ(engine.epoch(), 1u);
  }
}

TEST_F(EngineTestFixture, StatsAccumulateAndReset) {
  SearchEngine engine(BuildIndex(data_, 16));
  std::vector<std::vector<Neighbor>> results;
  ASSERT_TRUE(
      engine.SearchBatch(queries_.data(), kNumQueries, params_, &results)
          .ok());
  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.queries, kNumQueries);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.search_errors, 0u);
  EXPECT_GT(stats.codes_estimated, 0u);
  EXPECT_GT(stats.latency_p50_us, 0.0);
  EXPECT_GE(stats.latency_p99_us, stats.latency_p50_us);
  EXPECT_GT(stats.qps, 0.0);

  engine.ResetStats();
  stats = engine.Stats();
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.latency_p50_us, 0.0);
}

TEST_F(EngineTestFixture, PerQueryErrorsPropagateWithoutPoisoningBatch) {
  SearchEngine engine(BuildIndex(data_, 16));
  IvfSearchParams bad = params_;
  bad.k = 0;  // rejected by the search path
  std::future<EngineResult> bad_future =
      engine.SubmitAsync(queries_.Row(0), bad);
  std::future<EngineResult> good_future =
      engine.SubmitAsync(queries_.Row(1), params_);
  EXPECT_FALSE(bad_future.get().status.ok());
  EngineResult good = good_future.get();
  EXPECT_TRUE(good.status.ok()) << good.status.ToString();
  EXPECT_FALSE(good.neighbors.empty());
  EXPECT_EQ(engine.Stats().search_errors, 1u);

  // Sync batch: first error is returned, healthy queries still answered.
  std::vector<std::vector<Neighbor>> results;
  EXPECT_FALSE(
      engine.SearchBatch(queries_.data(), 2, bad, &results).ok());
  ASSERT_EQ(results.size(), 2u);
}

TEST(EngineTest, LatencyHistogramQuantiles) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_EQ(hist.max_micros(), 1000.0);
  // Log-bucketed quantiles carry <= ~19% bucket error plus the bucket-edge
  // overestimate; accept a generous band around the exact quantiles.
  EXPECT_GT(hist.Quantile(0.5), 350.0);
  EXPECT_LT(hist.Quantile(0.5), 800.0);
  EXPECT_GT(hist.Quantile(0.99), 800.0);
  EXPECT_LE(hist.Quantile(0.99), 1000.0);
  // Degenerate q resolves to the first occupied bucket's upper edge.
  EXPECT_GE(hist.Quantile(0.0), 1.0);
  EXPECT_LE(hist.Quantile(0.0), 2.0);
}

TEST(EngineTest, QuerySeedStreamIsStable) {
  // The parity contract freezes the derivation: same (base, ticket) ->
  // same seed, distinct tickets -> distinct seeds.
  EXPECT_EQ(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(1, 0));
  EXPECT_NE(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(1, 1));
  EXPECT_NE(SearchEngine::QuerySeed(1, 0), SearchEngine::QuerySeed(2, 0));
}

}  // namespace
}  // namespace rabitq
