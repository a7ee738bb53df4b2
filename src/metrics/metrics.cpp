#include "src/metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/status.hpp"

namespace cliz {

ErrorStats error_stats(std::span<const float> original,
                       std::span<const float> reconstructed,
                       const MaskMap* mask) {
  CLIZ_REQUIRE(original.size() == reconstructed.size(),
               "error_stats arity mismatch");
  ErrorStats s;
  double sum_sq = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    const double o = static_cast<double>(original[i]);
    const double r = static_cast<double>(reconstructed[i]);
    const double e = std::abs(o - r);
    s.max_abs_error = std::max(s.max_abs_error, e);
    sum_sq += e * e;
    lo = std::min(lo, o);
    hi = std::max(hi, o);
    ++s.count;
  }
  if (s.count == 0) return s;
  s.rmse = std::sqrt(sum_sq / static_cast<double>(s.count));
  s.value_range = hi - lo;
  s.psnr = s.rmse > 0.0
               ? 20.0 * std::log10(s.value_range / s.rmse)
               : std::numeric_limits<double>::infinity();
  return s;
}

double mean_ssim(const NdArray<float>& original,
                 const NdArray<float>& reconstructed, const MaskMap* mask,
                 std::size_t window, std::size_t stride) {
  CLIZ_REQUIRE(original.shape() == reconstructed.shape(),
               "mean_ssim shape mismatch");
  CLIZ_REQUIRE(window >= 2 && stride >= 1, "bad SSIM window parameters");
  const Shape& shape = original.shape();
  const std::size_t nd = shape.ndims();
  CLIZ_REQUIRE(nd >= 2, "SSIM needs at least 2 dims");
  const std::size_t rows = shape.dim(nd - 2);
  const std::size_t cols = shape.dim(nd - 1);
  const std::size_t plane = rows * cols;
  const std::size_t n_slices = shape.size() / plane;

  const double range = value_range(original.flat(), mask);
  const double c1 = (0.01 * range) * (0.01 * range);
  const double c2 = (0.03 * range) * (0.03 * range);

  double total = 0.0;
  std::size_t n_windows = 0;
  const std::size_t wn = window * window;
  for (std::size_t s = 0; s < n_slices; ++s) {
    const std::size_t base = s * plane;
    for (std::size_t r0 = 0; r0 + window <= rows; r0 += stride) {
      for (std::size_t c0 = 0; c0 + window <= cols; c0 += stride) {
        double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
        bool ok = true;
        for (std::size_t r = r0; r < r0 + window && ok; ++r) {
          for (std::size_t c = c0; c < c0 + window; ++c) {
            const std::size_t off = base + r * cols + c;
            if (mask != nullptr && !mask->valid(off)) {
              ok = false;
              break;
            }
            const double x = static_cast<double>(original[off]);
            const double y = static_cast<double>(reconstructed[off]);
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
          }
        }
        if (!ok) continue;
        const double n = static_cast<double>(wn);
        const double mx = sx / n;
        const double my = sy / n;
        const double vx = std::max(0.0, sxx / n - mx * mx);
        const double vy = std::max(0.0, syy / n - my * my);
        const double cxy = sxy / n - mx * my;
        const double ssim = ((2.0 * mx * my + c1) * (2.0 * cxy + c2)) /
                            ((mx * mx + my * my + c1) * (vx + vy + c2));
        total += ssim;
        ++n_windows;
      }
    }
  }
  return n_windows > 0 ? total / static_cast<double>(n_windows) : 0.0;
}

double pearson_correlation(std::span<const float> original,
                           std::span<const float> reconstructed,
                           const MaskMap* mask) {
  CLIZ_REQUIRE(original.size() == reconstructed.size(),
               "pearson arity mismatch");
  double sx = 0.0, sy = 0.0, sxx = 0.0, syy = 0.0, sxy = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    const double x = static_cast<double>(original[i]);
    const double y = static_cast<double>(reconstructed[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  const double cov = sxy / dn - (sx / dn) * (sy / dn);
  const double vx = sxx / dn - (sx / dn) * (sx / dn);
  const double vy = syy / dn - (sy / dn) * (sy / dn);
  if (vx <= 0.0 || vy <= 0.0) {
    // Constant field(s): perfectly correlated iff both are the same
    // constant.
    return vx == vy && cov == 0.0 ? 1.0 : 0.0;
  }
  return cov / std::sqrt(vx * vy);
}

double wasserstein_distance(std::span<const float> original,
                            std::span<const float> reconstructed,
                            const MaskMap* mask) {
  CLIZ_REQUIRE(original.size() == reconstructed.size(),
               "wasserstein arity mismatch");
  std::vector<double> a;
  std::vector<double> b;
  a.reserve(original.size());
  b.reserve(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    a.push_back(static_cast<double>(original[i]));
    b.push_back(static_cast<double>(reconstructed[i]));
  }
  if (a.empty()) return 0.0;
  // W1 between equal-size empirical distributions = mean |sorted diff|.
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += std::abs(a[i] - b[i]);
  return total / static_cast<double>(a.size());
}

namespace {

template <typename T>
double finite_range(std::span<const T> data, const MaskMap* mask) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    const double v = static_cast<double>(data[i]);
    if (!std::isfinite(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return hi >= lo ? hi - lo : 0.0;
}

double bound_from_range(double range, double rel_bound) {
  CLIZ_REQUIRE(rel_bound > 0, "relative bound must be positive");
  // Degenerate constant fields still need a positive absolute bound.
  return range > 0.0 ? rel_bound * range : rel_bound;
}

}  // namespace

double value_range(std::span<const float> data, const MaskMap* mask) {
  return finite_range(data, mask);
}

double value_range(std::span<const double> data, const MaskMap* mask) {
  return finite_range(data, mask);
}

double abs_bound_from_relative(std::span<const float> data, double rel_bound,
                               const MaskMap* mask) {
  return bound_from_range(value_range(data, mask), rel_bound);
}

double abs_bound_from_relative(std::span<const double> data, double rel_bound,
                               const MaskMap* mask) {
  return bound_from_range(value_range(data, mask), rel_bound);
}

}  // namespace cliz
