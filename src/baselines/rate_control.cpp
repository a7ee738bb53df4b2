#include "src/baselines/rate_control.hpp"

#include <cmath>

#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {

namespace {

/// Geometric bisection on the bound. `metric(bound)` must be monotone in
/// the bound; `increasing` says which way. Keeps the best-so-far result in
/// case the tolerance is never met inside max_iterations.
RateControlResult bisect(const CompressFn& compress,
                         const std::function<double(
                             const std::vector<std::uint8_t>&)>& metric,
                         double target, bool increasing,
                         const RateControlOptions& options) {
  CLIZ_REQUIRE(target > 0, "rate-control target must be positive");
  CLIZ_REQUIRE(options.bound_lo > 0 && options.bound_hi > options.bound_lo,
               "invalid bound search range");
  double lo = options.bound_lo;
  double hi = options.bound_hi;
  RateControlResult best;
  double best_gap = 1e300;
  for (int i = 0; i < options.max_iterations; ++i) {
    const double mid = std::sqrt(lo * hi);
    auto stream = compress(mid);
    const double m = metric(stream);
    const double gap = std::abs(m - target) / target;
    if (gap < best_gap) {
      best_gap = gap;
      best.abs_error_bound = mid;
      best.achieved = m;
      best.stream = std::move(stream);
    }
    best.iterations = i + 1;
    if (gap <= options.tolerance) break;
    // A looser bound raises CR and lowers PSNR.
    const bool too_low = m < target;
    if (too_low == increasing) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  CLIZ_REQUIRE(!best.stream.empty(), "rate control produced no stream");
  return best;
}

}  // namespace

RateControlResult compress_to_psnr(const NdArray<float>& data,
                                   double target_psnr,
                                   const CompressFn& compress,
                                   const MaskMap* mask,
                                   const RateControlOptions& options) {
  return bisect(
      compress,
      [&](const std::vector<std::uint8_t>& stream) {
        const auto recon = decompress_any(stream);
        return error_stats(data.flat(), recon.flat(), mask).psnr;
      },
      target_psnr, /*increasing=*/false, options);
}

RateControlResult compress_to_ratio(const NdArray<float>& data,
                                    double target_ratio,
                                    const CompressFn& compress,
                                    const RateControlOptions& options) {
  const double original_bytes =
      static_cast<double>(data.size() * sizeof(float));
  return bisect(
      compress,
      [&](const std::vector<std::uint8_t>& stream) {
        return original_bytes / static_cast<double>(stream.size());
      },
      target_ratio, /*increasing=*/true, options);
}

}  // namespace cliz
