#pragma once

// Z-checker-style compression quality report (the paper cites Z-checker as
// the community's assessment framework): one call computes every fidelity
// metric the climate evaluations use — point-wise error statistics, PSNR,
// SSIM, Pearson correlation, Wasserstein distance — plus the distribution
// of errors relative to the bound, and renders them as a human-readable
// block. Used by `clizc analyze` and available as a library API.

#include <array>
#include <cstddef>
#include <string>

#include "src/metrics/metrics.hpp"

namespace cliz {

/// Complete fidelity assessment of a reconstruction.
struct QualityReport {
  ErrorStats stats;
  double ssim = 0.0;        ///< 0 when the data has fewer than 2 dims
  double pearson = 0.0;
  double wasserstein = 0.0;

  /// The bound the comparison was made against (0 = not supplied).
  double error_bound = 0.0;
  bool bound_satisfied = true;

  /// Histogram of |error| / bound over [0, 1] in ten buckets (only filled
  /// when a bound was supplied). A healthy quantizer has most mass in the
  /// middle buckets; mass in the last bucket means errors hug the bound.
  std::array<std::size_t, 10> error_histogram{};

  /// Compression accounting (0 = not supplied).
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;

  /// Multi-line human-readable rendering.
  [[nodiscard]] std::string to_text() const;
};

/// Computes the full report. `abs_error_bound` of 0 skips the bound checks;
/// `compressed_bytes` of 0 skips the size accounting.
QualityReport quality_report(const NdArray<float>& original,
                             const NdArray<float>& reconstructed,
                             const MaskMap* mask = nullptr,
                             double abs_error_bound = 0.0,
                             std::size_t compressed_bytes = 0);

}  // namespace cliz
