#include "src/metrics/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/status.hpp"

namespace cliz {

QualityReport quality_report(const NdArray<float>& original,
                             const NdArray<float>& reconstructed,
                             const MaskMap* mask, double abs_error_bound,
                             std::size_t compressed_bytes) {
  CLIZ_REQUIRE(original.shape() == reconstructed.shape(),
               "quality_report shape mismatch");
  QualityReport r;
  r.stats = error_stats(original.flat(), reconstructed.flat(), mask);
  if (original.shape().ndims() >= 2) {
    r.ssim = mean_ssim(original, reconstructed, mask);
  }
  r.pearson = pearson_correlation(original.flat(), reconstructed.flat(), mask);
  r.wasserstein =
      wasserstein_distance(original.flat(), reconstructed.flat(), mask);
  r.error_bound = abs_error_bound;
  r.original_bytes = original.size() * sizeof(float);
  r.compressed_bytes = compressed_bytes;

  if (abs_error_bound > 0.0) {
    r.bound_satisfied = r.stats.max_abs_error <= abs_error_bound;
    for (std::size_t i = 0; i < original.size(); ++i) {
      if (mask != nullptr && !mask->valid(i)) continue;
      const double e = std::abs(static_cast<double>(original[i]) -
                                static_cast<double>(reconstructed[i]));
      const double frac = e / abs_error_bound;
      const auto bucket = static_cast<std::size_t>(std::min(
          9.0, std::floor(frac * 10.0)));
      ++r.error_histogram[bucket];
    }
  }
  return r;
}

std::string QualityReport::to_text() const {
  char buf[512];
  std::string out;
  const auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out += buf;
  };
  add("quality report (%zu valid points)\n", stats.count);
  add("  max abs error : %.6g\n", stats.max_abs_error);
  add("  RMSE          : %.6g\n", stats.rmse);
  add("  PSNR          : %.2f dB\n", stats.psnr);
  if (ssim != 0.0) add("  SSIM          : %.6f\n", ssim);
  add("  Pearson r     : %.6f\n", pearson);
  add("  Wasserstein   : %.6g\n", wasserstein);
  if (error_bound > 0.0) {
    add("  error bound   : %.6g -> %s\n", error_bound,
        bound_satisfied ? "SATISFIED" : "VIOLATED");
    std::size_t total = 0;
    for (const std::size_t b : error_histogram) total += b;
    if (total > 0) {
      add("  |err|/bound histogram:\n");
      for (int b = 0; b < 10; ++b) {
        const double frac = 100.0 * static_cast<double>(error_histogram[
                                static_cast<std::size_t>(b)]) /
                            static_cast<double>(total);
        add("    [%.1f, %.1f) %6.2f%% %s\n", b / 10.0, (b + 1) / 10.0, frac,
            std::string(static_cast<std::size_t>(frac / 2.0), '#').c_str());
      }
    }
  }
  if (compressed_bytes > 0) {
    add("  size          : %zu -> %zu bytes (%.2fx, %.3f bits/value)\n",
        original_bytes, compressed_bytes,
        compression_ratio(original_bytes, compressed_bytes),
        bit_rate(original_bytes / sizeof(float), compressed_bytes));
  }
  return out;
}

}  // namespace cliz
