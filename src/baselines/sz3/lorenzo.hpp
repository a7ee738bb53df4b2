#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options for the SZ2-style Lorenzo codec.
struct LorenzoOptions {
  std::uint32_t radius = 1u << 15;
};

/// Baseline in the spirit of SZ2's classic pipeline: first-order Lorenzo
/// prediction in raster order (inclusion-exclusion over the already
/// reconstructed corner neighbours), linear-scale quantization, Huffman and
/// the lossless backend. Lorenzo is the SZ-family predictor of choice for
/// noisy data and very tight bounds, where interpolation's wide stencils
/// stop paying — which is why SZ3 (and CliZ) keep it in the family toolbox.
/// Error-bounded like every codec here.
class LorenzoCompressor {
 public:
  explicit LorenzoCompressor(LorenzoOptions options = {})
      : options_(options) {}

  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                                   double abs_error_bound) const;

  [[nodiscard]] static NdArray<float> decompress(
      std::span<const std::uint8_t> stream);

 private:
  LorenzoOptions options_;
};

}  // namespace cliz
