#include "checks.h"

#include <cmath>
#include <cstring>
#include <unordered_set>

namespace perfbench {

namespace {

std::string Describe(const char* what, std::size_t rank, std::uint32_t id) {
  return std::string(what) + " (rank " + std::to_string(rank) + ", id " +
         std::to_string(id) + ")";
}

}  // namespace

std::string CheckOrdered(const Result& r) {
  std::unordered_set<std::uint32_t> seen;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!seen.insert(r[i].second).second) {
      return Describe("duplicate id in result", i, r[i].second);
    }
    if (i > 0 && r[i].first < r[i - 1].first) {
      return Describe("result out of order", i, r[i].second);
    }
  }
  return "";
}

std::string CheckDistances(
    const Result& r, Space space, const float* query, std::size_t dim,
    const std::function<const float*(std::uint32_t)>& vector_of) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    const float* v = vector_of(r[i].second);
    if (v == nullptr) return Describe("unknown id returned", i, r[i].second);
    const double exact = ExactDistance(space, v, query, dim);
    if (std::fabs(exact - r[i].first) > DistanceTolerance(space, v, query, dim)) {
      return Describe("returned distance differs from exact", i, r[i].second) +
             ": " + std::to_string(r[i].first) + " vs " + std::to_string(exact);
    }
  }
  return "";
}

std::string CheckNoDeleted(const Result& r,
                           const std::function<bool(std::uint32_t)>& deleted) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (deleted(r[i].second)) return Describe("deleted id returned", i, r[i].second);
  }
  return "";
}

std::string CheckAllowed(const Result& r, const std::vector<std::uint64_t>& bits,
                         std::size_t num_ids) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    const std::uint32_t id = r[i].second;
    if (id >= num_ids || ((bits[id >> 6] >> (id & 63u)) & 1u) == 0) {
      return Describe("id outside the filter's allow-set", i, id);
    }
  }
  return "";
}

std::string CheckMatchesOracle(const Result& r, const std::vector<Exact>& truth,
                               std::size_t k, double tolerance) {
  const std::size_t want = std::min(k, truth.size());
  if (r.size() != want) {
    return "result has " + std::to_string(r.size()) + " neighbours, oracle " +
           std::to_string(want);
  }
  for (std::size_t i = 0; i < want; ++i) {
    if (std::fabs(r[i].first - truth[i].dist) > tolerance) {
      return Describe("true neighbour missing", i, truth[i].id) +
             ": returned id " + std::to_string(r[i].second) + " at " +
             std::to_string(r[i].first) + ", oracle " +
             std::to_string(truth[i].dist);
    }
  }
  return "";
}

double RecallAtK(const Result& r, const std::vector<Exact>& truth,
                 std::size_t k) {
  const std::size_t want = std::min(k, truth.size());
  if (want == 0) return 1.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < want; ++i) {
    for (const auto& n : r) {
      if (n.second == truth[i].id) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(want);
}

std::string CheckRecallFloor(double recall, double ceiling, double slack) {
  if (recall + 1e-12 < ceiling - slack) {
    return "recall@10 " + std::to_string(recall) + " below floor " +
           std::to_string(ceiling - slack) + " (probed-list ceiling " +
           std::to_string(ceiling) + ")";
  }
  return "";
}

std::string CheckIdentical(const Result& a, const Result& b) {
  if (a.size() != b.size()) {
    return "results differ in length: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second ||
        std::memcmp(&a[i].first, &b[i].first, sizeof(float)) != 0) {
      return Describe("results differ", i, a[i].second) + " vs id " +
             std::to_string(b[i].second);
    }
  }
  return "";
}

std::string CheckStageSum(double stage_sum_us, double outside_us) {
  if (stage_sum_us > outside_us) {
    return "engine stage means sum to " + std::to_string(stage_sum_us) +
           " us, above the " + std::to_string(outside_us) +
           " us measured outside for the same queries";
  }
  return "";
}

}  // namespace perfbench
