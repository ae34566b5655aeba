#include "data.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>

namespace perfbench {

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::size_t kBlockRows = 512;

/// Cluster centres and per-dimension scales shared by every stream of one
/// (shape, seed): base vectors, queries and churn vectors come from the
/// same distribution.
struct Mixture {
  std::size_t clusters = 0;
  std::vector<float> centres;  // clusters x dim
  std::vector<float> scales;   // dim (heavy-tailed) or clusters (others)
};

Mixture MakeMixture(Shape shape, std::size_t dim, std::uint64_t seed) {
  std::mt19937_64 rng(Mix(seed, 0xC3A7));
  std::normal_distribution<float> normal(0.0f, 1.0f);
  Mixture m;
  switch (shape) {
    case Shape::kGaussianMixture: {
      m.clusters = 256;
      m.centres.resize(m.clusters * dim);
      for (float& c : m.centres) c = 40.0f * std::fabs(normal(rng));
      std::uniform_real_distribution<float> spread(20.0f, 40.0f);
      m.scales.resize(m.clusters);
      for (float& s : m.scales) s = spread(rng);
      break;
    }
    case Shape::kHeavyTailed: {
      m.clusters = 32;
      m.scales.resize(dim);
      for (float& s : m.scales) s = std::exp(normal(rng));
      m.centres.resize(m.clusters * dim);
      for (std::size_t c = 0; c < m.clusters; ++c) {
        for (std::size_t j = 0; j < dim; ++j) {
          m.centres[c * dim + j] = 1.0f * m.scales[j] * normal(rng);
        }
      }
      break;
    }
    case Shape::kAngular: {
      m.clusters = 128;
      m.centres.resize(m.clusters * dim);
      for (std::size_t c = 0; c < m.clusters; ++c) {
        double norm = 0.0;
        for (std::size_t j = 0; j < dim; ++j) {
          const float v = normal(rng);
          m.centres[c * dim + j] = v;
          norm += static_cast<double>(v) * v;
        }
        const float inv = static_cast<float>(1.0 / std::sqrt(norm));
        for (std::size_t j = 0; j < dim; ++j) m.centres[c * dim + j] *= inv;
      }
      break;
    }
  }
  return m;
}

void FillBlock(Shape shape, const Mixture& m, std::size_t dim,
               std::uint64_t block_seed, float* out, std::size_t rows) {
  std::mt19937_64 rng(block_seed);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::chi_squared_distribution<float> chi3(3.0f);
  std::uniform_int_distribution<std::size_t> pick(0, m.clusters - 1);
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = out + r * dim;
    const std::size_t c = pick(rng);
    const float* centre = m.centres.data() + c * dim;
    switch (shape) {
      case Shape::kGaussianMixture:
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = std::max(0.0f, centre[j] + m.scales[c] * normal(rng));
        }
        break;
      case Shape::kHeavyTailed:
        for (std::size_t j = 0; j < dim; ++j) {
          const float t = normal(rng) / std::sqrt(chi3(rng) / 3.0f);
          row[j] = centre[j] + 0.5f * m.scales[j] * t;
        }
        break;
      case Shape::kAngular: {
        const float norm = std::exp(0.3f * normal(rng));
        const float noise = 1.6f / std::sqrt(static_cast<float>(dim));
        for (std::size_t j = 0; j < dim; ++j) {
          row[j] = norm * (centre[j] + noise * normal(rng));
        }
        break;
      }
    }
  }
}

}  // namespace

rabitq::Matrix Generate(Shape shape, std::size_t rows, std::size_t dim,
                        std::uint64_t seed, std::uint64_t stream) {
  const Mixture mixture = MakeMixture(shape, dim, seed);
  rabitq::Matrix out(rows, dim);
  const std::size_t blocks = (rows + kBlockRows - 1) / kBlockRows;
  // Each block has its own generator, so the output does not depend on how
  // many threads fill it.
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   std::thread::hardware_concurrency(), 4));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t b = t; b < blocks; b += threads) {
        const std::size_t begin = b * kBlockRows;
        const std::size_t n = std::min(kBlockRows, rows - begin);
        FillBlock(shape, mixture, dim, Mix(Mix(seed, stream), b),
                  out.Row(begin), n);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

double ExactDistance(Space space, const float* a, const float* q,
                     std::size_t dim) {
  // Four independent accumulators: double sums do not vectorize without
  // reassociation, so this keeps the oracle from being latency bound.
  if (space == Space::kL2) {
    double s[4] = {0, 0, 0, 0};
    std::size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      for (int u = 0; u < 4; ++u) {
        const double d = static_cast<double>(a[j + u]) - q[j + u];
        s[u] += d * d;
      }
    }
    for (; j < dim; ++j) {
      const double d = static_cast<double>(a[j]) - q[j];
      s[0] += d * d;
    }
    return (s[0] + s[1]) + (s[2] + s[3]);
  }
  double dot[4] = {0, 0, 0, 0};
  double aa[4] = {0, 0, 0, 0};
  double qq[4] = {0, 0, 0, 0};
  std::size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    for (int u = 0; u < 4; ++u) {
      const double x = a[j + u];
      const double y = q[j + u];
      dot[u] += x * y;
      aa[u] += x * x;
      qq[u] += y * y;
    }
  }
  for (; j < dim; ++j) {
    dot[0] += static_cast<double>(a[j]) * q[j];
    aa[0] += static_cast<double>(a[j]) * a[j];
    qq[0] += static_cast<double>(q[j]) * q[j];
  }
  const double d = (dot[0] + dot[1]) + (dot[2] + dot[3]);
  const double na = (aa[0] + aa[1]) + (aa[2] + aa[3]);
  const double nq = (qq[0] + qq[1]) + (qq[2] + qq[3]);
  return -d / std::sqrt(na * nq);
}

double DistanceTolerance(Space space, const float* a, const float* q,
                         std::size_t dim) {
  // A float sum of `dim` products carries a relative error of a few ulps of
  // the magnitudes summed, so the bound scales with them, not with the
  // (possibly tiny) distance itself.
  if (space == Space::kCosine) return 5e-5;
  double aa = 0.0;
  double qq = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    aa += static_cast<double>(a[j]) * a[j];
    qq += static_cast<double>(q[j]) * q[j];
  }
  return 2e-6 * (aa + qq) + 1e-6;
}

std::vector<Exact> ExactTopK(Space space, const rabitq::Matrix& base,
                             std::size_t n, const float* query, std::size_t k,
                             const std::function<bool(std::uint32_t)>& admit) {
  auto worse = [](const Exact& x, const Exact& y) {
    return x.dist < y.dist || (x.dist == y.dist && x.id < y.id);
  };
  std::vector<Exact> heap;  // max-heap under `worse`: top is the k-th best
  heap.reserve(k + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if (admit && !admit(id)) continue;
    const Exact e{ExactDistance(space, base.Row(i), query, base.cols()), id};
    if (heap.size() < k) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (worse(e, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = e;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

std::vector<std::vector<Exact>> ExactTopKBatch(
    Space space, const rabitq::Matrix& base, std::size_t n,
    const rabitq::Matrix& queries, std::size_t k,
    const std::function<bool(std::size_t, std::uint32_t)>& admit,
    std::size_t threads) {
  std::vector<std::vector<Exact>> out(queries.rows());
  threads = std::max<std::size_t>(1, threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t q = t; q < queries.rows(); q += threads) {
        std::function<bool(std::uint32_t)> one;
        if (admit) one = [&, q](std::uint32_t id) { return admit(q, id); };
        out[q] = ExactTopK(space, base, n, queries.Row(q), k, one);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

}  // namespace perfbench
