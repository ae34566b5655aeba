// Self-test of the benchmark's checks: each check must pass on a correct
// result and fail on a deliberately broken one. Exit 0 when every check
// behaves; otherwise the failing cases are printed and the exit code is 1.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "checks.h"
#include "data.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest: %s\n", what.c_str());
  }
}
void ExpectPass(const std::string& verdict, const std::string& what) {
  Expect(verdict.empty(), what + " rejected a correct result: " + verdict);
}
void ExpectFail(const std::string& verdict, const std::string& what) {
  Expect(!verdict.empty(), what + " accepted a broken result");
}

Result FromTruth(const std::vector<Exact>& truth, std::size_t k) {
  Result r;
  for (std::size_t i = 0; i < k && i < truth.size(); ++i) {
    r.emplace_back(static_cast<float>(truth[i].dist), truth[i].id);
  }
  return r;
}

void RunSpace(Space space, Shape shape) {
  const std::size_t n = 2000, dim = 64, k = 10;
  const rabitq::Matrix base = Generate(shape, n, dim, 7, 1);
  const rabitq::Matrix queries = Generate(shape, 4, dim, 7, 2);
  const std::string tag = space == Space::kL2 ? "[l2] " : "[cosine] ";
  auto vector_of = [&](std::uint32_t id) -> const float* {
    return id < n ? base.Row(id) : nullptr;
  };
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const float* query = queries.Row(q);
    const std::vector<Exact> truth = ExactTopK(space, base, n, query, k + 1, nullptr);
    const std::vector<Exact> top(truth.begin(), truth.begin() + k);
    const Result good = FromTruth(truth, k);
    const double tol =
        space == Space::kCosine ? 5e-5 : 1e-6 * std::fabs(truth[k].dist) + 1e-3;

    ExpectPass(CheckOrdered(good), tag + "CheckOrdered");
    ExpectPass(CheckDistances(good, space, query, dim, vector_of), tag + "CheckDistances");
    ExpectPass(CheckMatchesOracle(good, top, k, tol), tag + "CheckMatchesOracle");
    ExpectPass(CheckIdentical(good, good), tag + "CheckIdentical");
    Expect(RecallAtK(good, top, k) == 1.0, tag + "RecallAtK of the oracle is not 1");

    // A dropped true neighbour: rank 4 replaced by the 11th.
    Result dropped = good;
    dropped.erase(dropped.begin() + 4);
    dropped.emplace_back(static_cast<float>(truth[k].dist), truth[k].id);
    ExpectFail(CheckMatchesOracle(dropped, top, k, tol), tag + "CheckMatchesOracle (dropped)");
    ExpectFail(CheckRecallFloor(RecallAtK(dropped, top, k), 1.0, 0.01),
               tag + "CheckRecallFloor (dropped)");

    // A deleted id.
    const std::uint32_t victim = good[3].second;
    ExpectPass(CheckNoDeleted(good, [&](std::uint32_t id) { return id == n + 1; }),
               tag + "CheckNoDeleted");
    ExpectFail(CheckNoDeleted(good, [&](std::uint32_t id) { return id == victim; }),
               tag + "CheckNoDeleted (deleted id)");

    // An id outside the filter's allow-set.
    std::vector<std::uint64_t> bits((n + 63) / 64, 0);
    for (const auto& nb : good) bits[nb.second >> 6] |= std::uint64_t{1} << (nb.second & 63u);
    ExpectPass(CheckAllowed(good, bits, n), tag + "CheckAllowed");
    bits[victim >> 6] &= ~(std::uint64_t{1} << (victim & 63u));
    ExpectFail(CheckAllowed(good, bits, n), tag + "CheckAllowed (outside)");

    // A perturbed distance.
    Result perturbed = good;
    perturbed[2].first += static_cast<float>(
        std::max(1e-3 * std::fabs(perturbed[2].first), 1e-3));
    ExpectFail(CheckDistances(perturbed, space, query, dim, vector_of),
               tag + "CheckDistances (perturbed)");

    // Results out of order, and a duplicate id.
    Result swapped = good;
    std::swap(swapped[1], swapped[6]);
    ExpectFail(CheckOrdered(swapped), tag + "CheckOrdered (out of order)");
    Result duplicate = good;
    duplicate[5] = duplicate[4];
    ExpectFail(CheckOrdered(duplicate), tag + "CheckOrdered (duplicate)");

    // A post-restore result that differs: one ulp, or one id.
    Result nudged = good;
    nudged[7].first = std::nextafter(nudged[7].first, INFINITY);
    ExpectFail(CheckIdentical(good, nudged), tag + "CheckIdentical (ulp)");
    Result other_id = good;
    other_id[0].second = truth[k].id;
    ExpectFail(CheckIdentical(good, other_id), tag + "CheckIdentical (id)");
    ExpectFail(CheckIdentical(good, Result(good.begin(), good.end() - 1)),
               tag + "CheckIdentical (length)");
  }
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  RunSpace(Space::kL2, Shape::kGaussianMixture);
  RunSpace(Space::kL2, Shape::kHeavyTailed);
  RunSpace(Space::kCosine, Shape::kAngular);
  ExpectPass(CheckRecallFloor(0.95, 0.955, 0.01), "CheckRecallFloor");
  ExpectFail(CheckRecallFloor(0.93, 0.955, 0.01), "CheckRecallFloor (below ceiling)");
  ExpectPass(CheckStageSum(99.0, 100.0), "CheckStageSum");
  ExpectFail(CheckStageSum(101.0, 100.0), "CheckStageSum (over)");
  if (g_failures == 0) std::printf("selftest: all checks pass correct and fail broken results\n");
  return g_failures == 0 ? 0 : 1;
}
