#include "core/rotator.h"

#include <algorithm>
#include <cmath>

#include "linalg/orthogonal.h"
#include "linalg/vector_ops.h"
#include "util/prng.h"

namespace rabitq {

std::size_t DefaultPaddedDim(std::size_t dim) { return ((dim + 63) / 64) * 64; }

namespace {

class DenseRotator final : public Rotator {
 public:
  DenseRotator(std::size_t input_dim, std::size_t padded_dim, const Matrix& p)
      : Rotator(input_dim, padded_dim) {
    // Store P^T so the hot path (InverseRotate, once per probed cluster per
    // query) runs B streaming dot products of length D instead of D
    // strided axpys of length B -- compute-bound instead of memory-bound.
    Transpose(p, &pt_);
  }

  void Rotate(const float* in, float* out) const override {
    // P in = (P^T)^T in.
    MatTVec(pt_, in, out);
  }

  void InverseRotate(const float* in, float* out) const override {
    // (P^T pad(in))[i] = <column i of P, pad(in)> = <row i of P^T, in[0..D)>
    // -- padding contributes nothing, so each dot stops at input_dim.
    for (std::size_t i = 0; i < padded_dim_; ++i) {
      out[i] = Dot(pt_.Row(i), in, input_dim_);
    }
  }

  void InverseRotateRows(const float* in, std::size_t in_stride,
                         std::size_t n, float* out) const override {
    // One (n x D) x (D x B) matrix product, tiled over query groups so each
    // row of P^T streams through cache once per kTile queries instead of
    // once per query -- the B x D matrix traffic that dominates a single
    // gemv amortizes across the block. Each output element stays the exact
    // Dot(pt_.Row(i), q, input_dim_) of InverseRotate (not an Axpy-ordered
    // MatMul), preserving the base-class bit-identity contract.
    constexpr std::size_t kTile = 8;
    for (std::size_t q0 = 0; q0 < n; q0 += kTile) {
      const std::size_t q1 = std::min(q0 + kTile, n);
      for (std::size_t i = 0; i < padded_dim_; ++i) {
        const float* p_row = pt_.Row(i);
        for (std::size_t q = q0; q < q1; ++q) {
          out[q * padded_dim_ + i] = Dot(p_row, in + q * in_stride, input_dim_);
        }
      }
    }
  }

 private:
  Matrix pt_;  // P^T, padded_dim x padded_dim
};

// In-place normalized Walsh-Hadamard transform; n must be a power of two.
void Fht(float* v, std::size_t n) {
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t group = 0; group < n; group += half << 1) {
      for (std::size_t i = group; i < group + half; ++i) {
        const float a = v[i];
        const float b = v[i + half];
        v[i] = a + b;
        v[i + half] = a - b;
      }
    }
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(n));
  ScaleInPlace(v, scale, n);
}

class IdentityRotator final : public Rotator {
 public:
  IdentityRotator(std::size_t input_dim, std::size_t padded_dim)
      : Rotator(input_dim, padded_dim) {}

  void Rotate(const float* in, float* out) const override {
    std::copy_n(in, padded_dim_, out);
  }

  void InverseRotate(const float* in, float* out) const override {
    std::copy_n(in, input_dim_, out);
    std::fill(out + input_dim_, out + padded_dim_, 0.0f);
  }
};

class FhtRotator final : public Rotator {
 public:
  static constexpr int kRounds = 3;

  FhtRotator(std::size_t input_dim, std::size_t padded_dim, std::uint64_t seed)
      : Rotator(input_dim, padded_dim) {
    Rng rng(seed);
    for (int r = 0; r < kRounds; ++r) {
      signs_[r].resize(padded_dim);
      for (auto& s : signs_[r]) s = (rng.NextU64() & 1) ? 1.0f : -1.0f;
    }
  }

  // P = (S3 H)(S2 H)(S1 H) reading right to left on the input, i.e.
  // Rotate applies H then S1, ..., H then S3? -- we define it the other way
  // around so InverseRotate (the hot path) is sign-then-transform:
  //   P   = H S1 H S2 H S3         (applied right-to-left)
  //   P^T = S3 H S2 H S1 H
  void Rotate(const float* in, float* out) const override {
    std::copy_n(in, padded_dim_, out);
    for (int r = kRounds - 1; r >= 0; --r) {
      ApplySigns(out, r);
      Fht(out, padded_dim_);
    }
  }

  void InverseRotate(const float* in, float* out) const override {
    std::copy_n(in, input_dim_, out);
    std::fill(out + input_dim_, out + padded_dim_, 0.0f);
    for (int r = 0; r < kRounds; ++r) {
      Fht(out, padded_dim_);
      ApplySigns(out, r);
    }
  }

 private:
  void ApplySigns(float* v, int round) const {
    const float* s = signs_[round].data();
    for (std::size_t i = 0; i < padded_dim_; ++i) v[i] *= s[i];
  }

  AlignedVector<float> signs_[kRounds];
};

}  // namespace

Status CreateRotator(std::size_t dim, std::size_t padded_dim, RotatorKind kind,
                     std::uint64_t seed, std::unique_ptr<Rotator>* out) {
  if (out == nullptr) return Status::InvalidArgument("null output");
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (padded_dim == 0) padded_dim = DefaultPaddedDim(dim);
  if (padded_dim < dim) {
    return Status::InvalidArgument("padded_dim must be >= dim");
  }
  switch (kind) {
    case RotatorKind::kDense: {
      Matrix p;
      Rng rng(seed);
      RABITQ_RETURN_IF_ERROR(SampleRandomOrthogonal(padded_dim, &rng, &p));
      *out = std::make_unique<DenseRotator>(dim, padded_dim, std::move(p));
      return Status::Ok();
    }
    case RotatorKind::kFht: {
      std::size_t pow2 = 1;
      while (pow2 < padded_dim) pow2 <<= 1;
      *out = std::make_unique<FhtRotator>(dim, pow2, seed);
      return Status::Ok();
    }
    case RotatorKind::kIdentity:
      *out = std::make_unique<IdentityRotator>(dim, padded_dim);
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown rotator kind");
}

}  // namespace rabitq
