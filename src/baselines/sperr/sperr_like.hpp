#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options for the SPERR-style baseline codec.
struct SperrOptions {
  /// Maximum wavelet decomposition levels (clamped per shape).
  int levels = 4;
  /// Coefficient quantizer error bound as a fraction of the data tolerance.
  /// Smaller = fewer outlier corrections but more coefficient bits.
  double coeff_tolerance_ratio = 0.5;
};

/// Baseline in the spirit of SPERR: multi-level CDF 9/7 wavelet transform,
/// quantized coefficient coding, and an explicit outlier-correction pass
/// that restores the strict point-wise error bound (SPERR's defining
/// feature over plain wavelet coders). Wavelet coding is strong at low
/// bit-rates on smooth fields, which is the regime the paper's Fig. 10
/// curves show it winning against SZ3 on some datasets.
class SperrLikeCompressor {
 public:
  explicit SperrLikeCompressor(SperrOptions options = {})
      : options_(options) {}

  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                                   double abs_error_bound) const;

  [[nodiscard]] static NdArray<float> decompress(
      std::span<const std::uint8_t> stream);

 private:
  SperrOptions options_;
};

}  // namespace cliz
