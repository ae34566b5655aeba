// The benchmark's own inputs and reference answers. Nothing here calls into
// the program under test: the generator draws every vector from a seed, and
// the oracle is a plain exact scan computed in double precision. The program
// only ever receives the generated vectors.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace perfbench {

/// Distance space, mirrored here so the oracle does not depend on the
/// program's own metric code.
enum class Space { kL2, kCosine };

enum class Shape {
  /// SIFT-like: non-negative Gaussian mixture with per-cluster spread.
  kGaussianMixture,
  /// MSong-like: heavy-tailed (Student-t, 3 degrees of freedom) noise on
  /// log-normally scaled dimensions around a few cluster centres.
  kHeavyTailed,
  /// Word2Vec-like: vectors scattered around topic directions, with
  /// log-normal norms that a cosine index must normalize away.
  kAngular,
};

/// `rows` vectors of `dim` floats drawn from `shape`. `stream` separates
/// independent draws from one seed (base set, queries, churn vectors) while
/// sharing the same cluster centres.
rabitq::Matrix Generate(Shape shape, std::size_t rows, std::size_t dim,
                        std::uint64_t seed, std::uint64_t stream);

/// SplitMix64 finalizer: the benchmark's only hash.
std::uint64_t Mix(std::uint64_t a, std::uint64_t b);

/// Exact distance in double precision, on the program's ascending scale:
/// squared L2, or the negated cosine similarity.
double ExactDistance(Space space, const float* a, const float* q,
                     std::size_t dim);

/// Float tolerance allowed between the program's returned distance and the
/// exact one for this pair (float accumulation over `dim` terms).
double DistanceTolerance(Space space, const float* a, const float* q,
                         std::size_t dim);

struct Exact {
  double dist = 0.0;
  std::uint32_t id = 0;
};

/// Exact top-`k` of `query` over rows [0, n) of `base` for which
/// `admit(id)` holds (null admits every row). Ascending, ties by id.
std::vector<Exact> ExactTopK(Space space, const rabitq::Matrix& base,
                             std::size_t n, const float* query, std::size_t k,
                             const std::function<bool(std::uint32_t)>& admit);

/// ExactTopK for every row of `queries`, spread over `threads` threads.
std::vector<std::vector<Exact>> ExactTopKBatch(
    Space space, const rabitq::Matrix& base, std::size_t n,
    const rabitq::Matrix& queries, std::size_t k,
    const std::function<bool(std::size_t, std::uint32_t)>& admit,
    std::size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
