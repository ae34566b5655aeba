// Tests for the rotators: orthogonality (norm/inner-product preservation),
// inverse consistency, padding semantics, determinism, bit-identity of the
// batched row-block rotation, FHT power-of-two handling -- parameterized
// over both rotator kinds.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rotator.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {
namespace {

std::vector<float> RandomVec(std::size_t dim, Rng* rng) {
  std::vector<float> v(dim);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian());
  return v;
}

TEST(RotatorTest, DefaultPaddedDimRoundsUpToMultipleOf64) {
  EXPECT_EQ(DefaultPaddedDim(1), 64u);
  EXPECT_EQ(DefaultPaddedDim(64), 64u);
  EXPECT_EQ(DefaultPaddedDim(65), 128u);
  EXPECT_EQ(DefaultPaddedDim(128), 128u);
  EXPECT_EQ(DefaultPaddedDim(960), 960u);
  EXPECT_EQ(DefaultPaddedDim(420), 448u);
}

struct RotatorCase {
  RotatorKind kind;
  std::size_t dim;
  std::size_t padded;
};

class RotatorParamTest : public ::testing::TestWithParam<RotatorCase> {
 protected:
  void SetUp() override {
    const RotatorCase c = GetParam();
    ASSERT_TRUE(CreateRotator(c.dim, c.padded, c.kind, 42, &rotator_).ok());
  }
  std::unique_ptr<Rotator> rotator_;
};

TEST_P(RotatorParamTest, InverseRotatePreservesNorm) {
  const RotatorCase c = GetParam();
  Rng rng(c.dim);
  const auto v = RandomVec(c.dim, &rng);
  std::vector<float> out(rotator_->padded_dim());
  rotator_->InverseRotate(v.data(), out.data());
  EXPECT_NEAR(Norm(out.data(), out.size()), Norm(v.data(), c.dim),
              1e-3f * (1.0f + Norm(v.data(), c.dim)));
}

TEST_P(RotatorParamTest, InverseRotatePreservesInnerProducts) {
  const RotatorCase c = GetParam();
  Rng rng(c.dim + 5);
  const auto a = RandomVec(c.dim, &rng);
  const auto b = RandomVec(c.dim, &rng);
  const std::size_t padded = rotator_->padded_dim();
  std::vector<float> pa(padded), pb(padded);
  rotator_->InverseRotate(a.data(), pa.data());
  rotator_->InverseRotate(b.data(), pb.data());
  EXPECT_NEAR(Dot(pa.data(), pb.data(), padded), Dot(a.data(), b.data(), c.dim),
              1e-2f * c.dim);
}

TEST_P(RotatorParamTest, RotateInvertsInverseRotate) {
  const RotatorCase c = GetParam();
  Rng rng(c.dim + 9);
  const auto v = RandomVec(c.dim, &rng);
  const std::size_t padded = rotator_->padded_dim();
  std::vector<float> inv(padded), back(padded);
  rotator_->InverseRotate(v.data(), inv.data());
  rotator_->Rotate(inv.data(), back.data());
  // P (P^T pad(v)) = pad(v): first dim entries recover v, the rest are 0.
  for (std::size_t i = 0; i < c.dim; ++i) {
    EXPECT_NEAR(back[i], v[i], 2e-3f * (1.0f + std::fabs(v[i])));
  }
  for (std::size_t i = c.dim; i < padded; ++i) {
    EXPECT_NEAR(back[i], 0.0f, 2e-3f);
  }
}

TEST_P(RotatorParamTest, DeterministicForSameSeed) {
  const RotatorCase c = GetParam();
  std::unique_ptr<Rotator> twin;
  ASSERT_TRUE(CreateRotator(c.dim, c.padded, c.kind, 42, &twin).ok());
  Rng rng(c.dim + 1);
  const auto v = RandomVec(c.dim, &rng);
  std::vector<float> a(rotator_->padded_dim()), b(twin->padded_dim());
  rotator_->InverseRotate(v.data(), a.data());
  twin->InverseRotate(v.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST_P(RotatorParamTest, DifferentSeedsGiveDifferentRotations) {
  const RotatorCase c = GetParam();
  std::unique_ptr<Rotator> other;
  ASSERT_TRUE(CreateRotator(c.dim, c.padded, c.kind, 43, &other).ok());
  Rng rng(c.dim + 2);
  const auto v = RandomVec(c.dim, &rng);
  std::vector<float> a(rotator_->padded_dim()), b(other->padded_dim());
  rotator_->InverseRotate(v.data(), a.data());
  other->InverseRotate(v.data(), b.data());
  float diff = 0.0f;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    diff += std::fabs(a[i] - b[i]);
  }
  EXPECT_GT(diff, 0.1f);
}

// The serving engine rotates each worker's block of batch rows through
// InverseRotateRows (a strided sub-block of the gathered batch); every row
// must carry exactly the bits of a single-query InverseRotate, or batched
// search would drift from the sequential reference.
TEST_P(RotatorParamTest, InverseRotateRowsIsBitIdenticalToRowByRow) {
  const RotatorCase c = GetParam();
  Rng rng(c.dim + 11);
  constexpr std::size_t kRows = 11;  // spans a partial tile of the kernel
  const std::size_t stride = c.dim + 3;
  std::vector<float> batch(kRows * stride);
  for (auto& x : batch) x = static_cast<float>(rng.Gaussian());
  const std::size_t padded = rotator_->padded_dim();
  // A block starting mid-batch, as a worker's chunk does.
  constexpr std::size_t kFirst = 2;
  std::vector<float> block((kRows - kFirst) * padded);
  rotator_->InverseRotateRows(batch.data() + kFirst * stride, stride,
                              kRows - kFirst, block.data());
  std::vector<float> row(padded);
  for (std::size_t r = kFirst; r < kRows; ++r) {
    rotator_->InverseRotate(batch.data() + r * stride, row.data());
    for (std::size_t i = 0; i < padded; ++i) {
      ASSERT_EQ(block[(r - kFirst) * padded + i], row[i])
          << "row " << r << " coordinate " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RotatorParamTest,
    ::testing::Values(RotatorCase{RotatorKind::kDense, 64, 64},
                      RotatorCase{RotatorKind::kDense, 100, 128},
                      RotatorCase{RotatorKind::kDense, 128, 256},
                      RotatorCase{RotatorKind::kFht, 64, 64},
                      RotatorCase{RotatorKind::kFht, 100, 128},
                      RotatorCase{RotatorKind::kFht, 420, 448}));

TEST(RotatorTest, FhtRoundsPaddingToPowerOfTwo) {
  std::unique_ptr<Rotator> r;
  ASSERT_TRUE(CreateRotator(420, 448, RotatorKind::kFht, 1, &r).ok());
  EXPECT_EQ(r->padded_dim(), 512u);  // next power of two >= 448
  ASSERT_TRUE(CreateRotator(100, 128, RotatorKind::kFht, 1, &r).ok());
  EXPECT_EQ(r->padded_dim(), 128u);
}

TEST(RotatorTest, ZeroPaddedDimUsesDefault) {
  std::unique_ptr<Rotator> r;
  ASSERT_TRUE(CreateRotator(100, 0, RotatorKind::kDense, 1, &r).ok());
  EXPECT_EQ(r->padded_dim(), 128u);
}

TEST(RotatorTest, RejectsBadArguments) {
  std::unique_ptr<Rotator> r;
  EXPECT_FALSE(CreateRotator(0, 64, RotatorKind::kDense, 1, &r).ok());
  EXPECT_FALSE(CreateRotator(128, 64, RotatorKind::kDense, 1, &r).ok());
  EXPECT_FALSE(CreateRotator(64, 64, RotatorKind::kDense, 1, nullptr).ok());
}

}  // namespace
}  // namespace rabitq
