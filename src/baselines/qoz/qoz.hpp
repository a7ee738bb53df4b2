#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options for the QoZ baseline codec.
struct QozOptions {
  std::uint32_t radius = 1u << 15;
  /// Search all dimension pass orders instead of using storage order.
  bool tune_order = true;
  /// Probe stride for the tuning passes (1 = every point).
  std::size_t probe_stride = 8;
};

/// Baseline reimplementation in the spirit of QoZ 1.1 (dynamic quality-
/// metric-oriented SZ3): the SZ3 interpolation framework plus
///   - auto-tuned dimension pass order (probed over all permutations), and
///   - per-pass dynamic fitting selection (linear vs cubic chosen for every
///     (level, axis) pass by probing the actual prediction errors, one bit
///     per pass in the stream).
/// Error-bounded like Sz3Compressor; float32 only, and the stream records
/// the sample type.
class QozCompressor {
 public:
  explicit QozCompressor(QozOptions options = {}) : options_(options) {}

  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                                   double abs_error_bound) const;

  [[nodiscard]] static NdArray<float> decompress(
      std::span<const std::uint8_t> stream);

 private:
  QozOptions options_;
};

}  // namespace cliz
