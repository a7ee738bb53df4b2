#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options for the ZFP-style baseline codec.
struct ZfpOptions {
  /// Significand bits used for the per-block block-floating-point
  /// quantization (adapted upward per block when the tolerance demands it).
  int precision_bits = 40;
};

/// Baseline in the spirit of ZFP's fixed-accuracy mode: the array is cut
/// into 4^d blocks; each block is block-floating-point quantized to
/// integers, decorrelated with an exactly reversible integer transform
/// (two-level reversible Haar per dimension — a simplification of ZFP's
/// near-orthogonal lifting that keeps invertibility trivially testable),
/// coefficients are reordered by total frequency level, and encoded by
/// embedded bit-plane coding with group-tested significance, truncated at
/// the plane implied by the tolerance.
///
/// Like real ZFP, this codec has no knowledge of mask maps: blocks touching
/// huge fill values spend almost all bits on them — the behaviour the paper
/// exploits in its comparison.
class ZfpLikeCompressor {
 public:
  explicit ZfpLikeCompressor(ZfpOptions options = {}) : options_(options) {}

  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                                   double abs_error_bound) const;

  [[nodiscard]] static NdArray<float> decompress(
      std::span<const std::uint8_t> stream);

 private:
  ZfpOptions options_;
};

}  // namespace cliz
