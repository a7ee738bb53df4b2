#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "src/core/mask.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Point-wise reconstruction error statistics over the valid points.
struct ErrorStats {
  double max_abs_error = 0.0;
  double rmse = 0.0;
  double psnr = 0.0;         ///< 20*log10(range / rmse), paper Eq. 3
  double value_range = 0.0;  ///< max - min of the original valid data
  std::size_t count = 0;     ///< number of valid points compared
};

/// Computes max error / RMSE / PSNR between original and reconstruction,
/// restricted to valid points when `mask` is given.
ErrorStats error_stats(std::span<const float> original,
                       std::span<const float> reconstructed,
                       const MaskMap* mask = nullptr);

/// Mean SSIM (paper Eq. 4/5) over 8x8 windows of every trailing-2D slice,
/// windows slid by `stride`. Windows containing masked points are skipped.
/// The stabilizers use c1=(0.01 L)^2, c2=(0.03 L)^2 with L the valid value
/// range of the original.
double mean_ssim(const NdArray<float>& original,
                 const NdArray<float>& reconstructed,
                 const MaskMap* mask = nullptr, std::size_t window = 8,
                 std::size_t stride = 4);

/// Bits per value in the compressed representation.
inline double bit_rate(std::size_t n_points, std::size_t compressed_bytes) {
  return 8.0 * static_cast<double>(compressed_bytes) /
         static_cast<double>(n_points);
}

/// Original bytes / compressed bytes.
inline double compression_ratio(std::size_t original_bytes,
                                std::size_t compressed_bytes) {
  return static_cast<double>(original_bytes) /
         static_cast<double>(compressed_bytes);
}

/// Pearson correlation coefficient between original and reconstruction
/// over the valid points (one of the fidelity metrics in the paper's cited
/// climate-compression evaluations). 1.0 for a perfect reconstruction.
double pearson_correlation(std::span<const float> original,
                           std::span<const float> reconstructed,
                           const MaskMap* mask = nullptr);

/// First Wasserstein distance (earth mover's distance) between the value
/// distributions of original and reconstruction over the valid points —
/// measures distributional rather than point-wise distortion.
double wasserstein_distance(std::span<const float> original,
                            std::span<const float> reconstructed,
                            const MaskMap* mask = nullptr);

/// Valid-value range of a dataset; the base for relative error bounds
/// (paper: "relative error bound" = ratio x (max - min)). Non-finite values
/// are skipped, so one NaN or Inf cannot make the range (and with it a
/// relative bound) infinite.
double value_range(std::span<const float> data, const MaskMap* mask = nullptr);
double value_range(std::span<const double> data,
                   const MaskMap* mask = nullptr);

/// Absolute bound equivalent to a relative bound for this data.
double abs_bound_from_relative(std::span<const float> data, double rel_bound,
                               const MaskMap* mask = nullptr);
double abs_bound_from_relative(std::span<const double> data, double rel_bound,
                               const MaskMap* mask = nullptr);

}  // namespace cliz
