// Output checks of the benchmark. Each returns an empty string when the
// property holds and a one-line description of the violation otherwise, so
// the self-test can feed them deliberately broken results.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data.h"
#include "index/brute_force.h"

namespace perfbench {

using Result = std::vector<rabitq::Neighbor>;  // (distance, id), as returned

/// Ids unique and distances non-decreasing.
std::string CheckOrdered(const Result& r);

/// Every returned distance equals the exact distance of its id within float
/// tolerance. `vector_of(id)` yields the stored vector (null: unknown id).
std::string CheckDistances(
    const Result& r, Space space, const float* query, std::size_t dim,
    const std::function<const float*(std::uint32_t)>& vector_of);

/// No returned id is in the deleted set.
std::string CheckNoDeleted(const Result& r,
                           const std::function<bool(std::uint32_t)>& deleted);

/// Every returned id lies in the allow bitmap (`num_ids` bits).
std::string CheckAllowed(const Result& r, const std::vector<std::uint64_t>& bits,
                         std::size_t num_ids);

/// The result equals the oracle's top-k: same length (min(k, |truth|)) and
/// the same distance at every rank within float tolerance (ranks tied in
/// distance may hold either id).
std::string CheckMatchesOracle(const Result& r, const std::vector<Exact>& truth,
                               std::size_t k, double tolerance);

/// Share of the oracle's top-k ids present in `r`.
double RecallAtK(const Result& r, const std::vector<Exact>& truth,
                 std::size_t k);

/// Recall meets the floor the error bound justifies: `ceiling` is the share
/// of true neighbours inside the probed lists, and the bound at eps0 loses a
/// true neighbour inside them only when it fails for that code.
std::string CheckRecallFloor(double recall, double ceiling, double slack);

/// Ids and distances identical, bit for bit (snapshot/restore, wire parity).
std::string CheckIdentical(const Result& a, const Result& b);

/// The engine's own per-stage means fit inside the latency measured from
/// outside for the same queries.
std::string CheckStageSum(double stage_sum_us, double outside_us);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
