#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/ndarray/ndarray.hpp"
#include "src/predictor/fitting.hpp"

namespace cliz {

/// Options for the SZ3 baseline codec.
struct Sz3Options {
  /// Quantizer radius (codes span [0, 2*radius)).
  std::uint32_t radius = 1u << 15;
  /// When set, use this fitting; otherwise probe linear vs cubic on the
  /// input (SZ3's dynamic spline selection).
  bool force_fitting = false;
  FittingKind fitting = FittingKind::kCubic;
};

/// Baseline reimplementation of the SZ3 error-bounded lossy compressor
/// (dynamic spline interpolation + linear-scale quantization + Huffman +
/// lossless backend), the framework CliZ builds on. Compression is
/// error-bounded: every reconstructed value differs from the original by at
/// most `abs_error_bound`. Float32 only; the stream records the sample
/// type.
class Sz3Compressor {
 public:
  explicit Sz3Compressor(Sz3Options options = {}) : options_(options) {}

  /// Compresses `data` under an absolute error bound.
  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                                   double abs_error_bound) const;

  /// Reconstructs an array from a stream produced by compress().
  [[nodiscard]] static NdArray<float> decompress(
      std::span<const std::uint8_t> stream);

 private:
  Sz3Options options_;
};

}  // namespace cliz
