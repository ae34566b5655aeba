// Unit tests for the util substrate: Status, bit operations, PRNG,
// aligned storage, thread pool, the fair reader/writer lock, and *vecs file
// I/O.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/bit_ops.h"
#include "util/io.h"
#include "util/prng.h"
#include "util/shared_mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rabitq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto fails = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    RABITQ_RETURN_IF_ERROR(fails());
    return Status::Ok();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(BitOpsTest, WordsForBits) {
  EXPECT_EQ(WordsForBits(0), 0u);
  EXPECT_EQ(WordsForBits(1), 1u);
  EXPECT_EQ(WordsForBits(64), 1u);
  EXPECT_EQ(WordsForBits(65), 2u);
  EXPECT_EQ(WordsForBits(128), 2u);
}

TEST(BitOpsTest, SetGetBitRoundTrip) {
  std::uint64_t words[2] = {0, 0};
  SetBit(words, 0);
  SetBit(words, 63);
  SetBit(words, 64);
  SetBit(words, 127);
  EXPECT_TRUE(GetBit(words, 0));
  EXPECT_TRUE(GetBit(words, 63));
  EXPECT_TRUE(GetBit(words, 64));
  EXPECT_TRUE(GetBit(words, 127));
  EXPECT_FALSE(GetBit(words, 1));
  EXPECT_FALSE(GetBit(words, 100));
}

TEST(BitOpsTest, PopCountMatchesManualCount) {
  Rng rng(99);
  std::uint64_t words[4];
  for (auto& w : words) w = rng.NextU64();
  std::uint32_t manual = 0;
  for (std::size_t i = 0; i < 256; ++i) manual += GetBit(words, i) ? 1 : 0;
  EXPECT_EQ(PopCount(words, 4), manual);
}

TEST(BitOpsTest, BinaryDotMatchesElementwise) {
  Rng rng(7);
  std::uint64_t a[3], b[3];
  for (int i = 0; i < 3; ++i) {
    a[i] = rng.NextU64();
    b[i] = rng.NextU64();
  }
  std::uint32_t manual = 0;
  for (std::size_t i = 0; i < 192; ++i) {
    manual += (GetBit(a, i) && GetBit(b, i)) ? 1 : 0;
  }
  EXPECT_EQ(BinaryDot(a, b, 3), manual);
}

TEST(BitOpsTest, BitPlaneDotWeightsPlanesByPowersOfTwo) {
  // code = all ones; plane j has popcount p_j => result = sum 2^j p_j.
  std::uint64_t code[1] = {~std::uint64_t{0}};
  std::uint64_t planes[3] = {0xF, 0xFF, 0x3};  // popcounts 4, 8, 2
  EXPECT_EQ(BitPlaneDot(code, planes, 3, 1), 4u + 2u * 8u + 4u * 2u);
}

TEST(BitOpsTest, GetNibbleExtractsFourBitGroups) {
  std::uint64_t words[2] = {0xFEDCBA9876543210ULL, 0x0F0F0F0F0F0F0F0FULL};
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(GetNibble(words, i), i);
  }
  EXPECT_EQ(GetNibble(words, 16), 0xFu);
  EXPECT_EQ(GetNibble(words, 17), 0x0u);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(4);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = rng.UniformInt(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  // Each bucket should get ~10000; allow generous slack.
  for (const int count : histogram) {
    EXPECT_GT(count, 9000);
    EXPECT_LT(count, 11000);
  }
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(5);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(AlignedBufferTest, DataIsCacheLineAligned) {
  AlignedVector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kCacheLineBytes, 0u);
  AlignedVector<std::uint64_t> w(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % kCacheLineBytes, 0u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SmallRangeRunsInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, SubmitAndWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WorkerIndexIsUniquePerWorker) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.WorkerIndex(), ThreadPool::kNotAWorker);
  std::mutex mu;
  std::vector<std::size_t> seen;
  // Tasks that hold their worker until all three run, so each worker
  // reports exactly once.
  std::atomic<int> arrived{0};
  for (int t = 0; t < 3; ++t) {
    pool.Submit([&] {
      {
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(pool.WorkerIndex());
      }
      arrived.fetch_add(1);
      while (arrived.load() < 3) std::this_thread::yield();
    });
  }
  pool.Wait();
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

// The engine takes a batch's read locks on one thread and drops them on
// another, and relies on a waiting writer holding back new readers.
TEST(FairSharedMutexTest, WaitingWriterHoldsBackNewReaders) {
  FairSharedMutex mu;
  mu.lock_shared();
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    mu.lock();
    wrote.store(true);
    mu.unlock();
  });
  // Readers get in until the writer starts waiting; then they are refused.
  bool refused = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!refused && std::chrono::steady_clock::now() < give_up) {
    if (mu.try_lock_shared()) {
      mu.unlock_shared();
      std::this_thread::yield();
    } else {
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
  EXPECT_FALSE(wrote.load());
  // Released from a thread that never locked it.
  std::thread([&] { mu.unlock_shared(); }).join();
  writer.join();
  EXPECT_TRUE(wrote.load());
  EXPECT_TRUE(mu.try_lock_shared());
  mu.unlock_shared();
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);
  EXPECT_GE(timer.ElapsedNanos(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

class IoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }
};

TEST_F(IoTest, FvecsRoundTrip) {
  const std::string path = TempPath("roundtrip.fvecs");
  std::vector<float> data = {1.5f, -2.0f, 0.0f, 3.25f, 4.0f, -5.5f};
  ASSERT_TRUE(WriteFvecs(path, data.data(), 2, 3).ok());
  std::vector<float> loaded;
  std::size_t n = 0, dim = 0;
  ASSERT_TRUE(ReadFvecs(path, &loaded, &n, &dim).ok());
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(dim, 3u);
  EXPECT_EQ(loaded, data);
  std::remove(path.c_str());
}

TEST_F(IoTest, IvecsRoundTrip) {
  const std::string path = TempPath("roundtrip.ivecs");
  std::vector<std::int32_t> data = {1, 2, 3, -4, 5, 6, 7, -8};
  ASSERT_TRUE(WriteIvecs(path, data.data(), 2, 4).ok());
  std::vector<std::int32_t> loaded;
  std::size_t n = 0, dim = 0;
  ASSERT_TRUE(ReadIvecs(path, &loaded, &n, &dim).ok());
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(dim, 4u);
  EXPECT_EQ(loaded, data);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileIsIoError) {
  std::vector<float> out;
  std::size_t n, dim;
  EXPECT_EQ(ReadFvecs("/nonexistent/path.fvecs", &out, &n, &dim).code(),
            StatusCode::kIoError);
}

TEST_F(IoTest, InconsistentDimensionalityRejected) {
  const std::string path = TempPath("bad.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  auto write_record = [&](std::int32_t dim) {
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::vector<float> payload(dim, 1.0f);
    std::fwrite(payload.data(), sizeof(float), payload.size(), f);
  };
  write_record(3);
  write_record(4);
  std::fclose(f);
  std::vector<float> out;
  std::size_t n, dim;
  EXPECT_EQ(ReadFvecs(path, &out, &n, &dim).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, TruncatedRecordRejected) {
  const std::string path = TempPath("trunc.fvecs");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::int32_t dim = 8;
  std::fwrite(&dim, sizeof(dim), 1, f);
  const float partial[3] = {1, 2, 3};
  std::fwrite(partial, sizeof(float), 3, f);
  std::fclose(f);
  std::vector<float> out;
  std::size_t n, d;
  EXPECT_EQ(ReadFvecs(path, &out, &n, &d).code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST_F(IoTest, NullOutputsRejected) {
  std::size_t n, dim;
  std::vector<float> out;
  EXPECT_EQ(ReadFvecs("x", nullptr, &n, &dim).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadFvecs("x", &out, nullptr, &dim).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace rabitq
