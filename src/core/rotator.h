// The random rotation P defining RaBitQ's codebook C_rand = {P x | x in C}
// (paper Section 3.1.2). Vectors of the original dimensionality D are
// zero-padded to the code length B before rotating, implementing the
// "padding with 0's" knob of Section 5.1 (longer codes = lower error).
//
// Two implementations:
//  * DenseRotator -- a sampled B x B random orthogonal matrix, the exact
//    construction analyzed in the paper's proofs (Appendix B).
//  * FhtRotator -- 3 rounds of {random sign flip, normalized Walsh-Hadamard
//    transform}: an O(B log B) JLT. This is the "faster rotation" extension
//    the paper leaves to future work; the concentration bench shows it
//    matches the dense rotation empirically.

#ifndef RABITQ_CORE_ROTATOR_H_
#define RABITQ_CORE_ROTATOR_H_

#include <cstdint>
#include <memory>

#include "linalg/matrix.h"
#include "util/aligned_buffer.h"
#include "util/status.h"

namespace rabitq {

enum class RotatorKind {
  kDense,     // sampled random orthogonal matrix (the paper's construction)
  kFht,       // randomized Hadamard transform (O(B log B) extension)
  kIdentity,  // NO rotation: the deterministic codebook C of Eq. 3. Only for
              // the Appendix F.1 ablation -- the error bound does NOT hold.
};

/// Orthogonal transform with zero-padding from `input_dim` to `padded_dim`.
class Rotator {
 public:
  virtual ~Rotator() = default;

  std::size_t input_dim() const { return input_dim_; }
  std::size_t padded_dim() const { return padded_dim_; }

  /// out[0..padded_dim) = P * pad(in); `in` has padded_dim entries (pass a
  /// zero-extended buffer when starting from input_dim floats).
  virtual void Rotate(const float* in, float* out) const = 0;

  /// out[0..padded_dim) = P^T * pad(in); `in` has input_dim entries, the
  /// padding is implicit. This is the transform used on data vectors
  /// (Section 3.1.3) and query vectors (Section 3.3).
  virtual void InverseRotate(const float* in, float* out) const = 0;

  /// Batched inverse rotation of a row block: `in` holds n rows of
  /// input_dim floats, `in_stride` floats apart; `out` receives n rows of
  /// padded_dim floats, packed, with row i = P^T pad(in row i). The serving
  /// engine rotates each worker's block of a batch through this.
  ///
  /// Contract: bit-identical to calling InverseRotate row by row. The
  /// engine's result-parity guarantee (batched search == sequential search)
  /// rests on this, so overrides must reuse the single-query accumulation
  /// kernel and may only restructure the loop nest for locality.
  virtual void InverseRotateRows(const float* in, std::size_t in_stride,
                                 std::size_t n, float* out) const {
    for (std::size_t i = 0; i < n; ++i) {
      InverseRotate(in + i * in_stride, out + i * padded_dim_);
    }
  }

  /// Whole-matrix form of InverseRotateRows: `queries` is n x input_dim,
  /// `out` is reset to n x padded_dim.
  void InverseRotateBatch(const Matrix& queries, Matrix* out) const {
    out->Reset(queries.rows(), padded_dim_);
    InverseRotateRows(queries.data(), queries.cols(), queries.rows(),
                      out->data());
  }

 protected:
  Rotator(std::size_t input_dim, std::size_t padded_dim)
      : input_dim_(input_dim), padded_dim_(padded_dim) {}

  std::size_t input_dim_;
  std::size_t padded_dim_;
};

/// Creates a rotator. For kDense `padded_dim` may be any value >= dim (the
/// library rounds code lengths to multiples of 64 upstream); for kFht it is
/// raised to the next power of two. Deterministic in `seed`.
Status CreateRotator(std::size_t dim, std::size_t padded_dim, RotatorKind kind,
                     std::uint64_t seed, std::unique_ptr<Rotator>* out);

/// Smallest multiple of 64 that is >= dim (the paper's default code length).
std::size_t DefaultPaddedDim(std::size_t dim);

}  // namespace rabitq

#endif  // RABITQ_CORE_ROTATOR_H_
