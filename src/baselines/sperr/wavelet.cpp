#include "src/baselines/sperr/wavelet.hpp"

#include <algorithm>
#include <array>

#include "src/common/status.hpp"

namespace cliz {

namespace {

// CDF 9/7 lifting constants (JPEG2000 irreversible transform).
constexpr double kAlpha = -1.586134342059924;
constexpr double kBeta = -0.052980118572961;
constexpr double kGamma = 0.882911075530934;
constexpr double kDelta = 0.443506852043971;
constexpr double kK = 1.230174104914001;

/// Whole-sample symmetric mirror for out-of-range line indices.
inline std::size_t mirror(std::ptrdiff_t j, std::size_t n) {
  if (j < 0) j = -j;
  const auto nn = static_cast<std::ptrdiff_t>(n);
  if (j >= nn) j = 2 * (nn - 1) - j;
  return static_cast<std::size_t>(j);
}

/// One lifting step: x[j] += c * (x[j-1] + x[j+1]) for j of the given
/// parity, with mirrored boundaries.
void lift(double* x, std::size_t n, std::size_t start, double c) {
  for (std::size_t j = start; j < n; j += 2) {
    x[j] += c * (x[mirror(static_cast<std::ptrdiff_t>(j) - 1, n)] +
                 x[mirror(static_cast<std::ptrdiff_t>(j) + 1, n)]);
  }
}

/// Forward 9/7 on a contiguous line: lifting, scaling, then deinterleave
/// (approx first, details after).
void forward_line(double* x, std::size_t n, double* scratch) {
  if (n < 2) return;
  lift(x, n, 1, kAlpha);
  lift(x, n, 0, kBeta);
  lift(x, n, 1, kGamma);
  lift(x, n, 0, kDelta);
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < nl; ++i) scratch[i] = x[2 * i] * kK;
  for (std::size_t i = 0; 2 * i + 1 < n; ++i) {
    scratch[nl + i] = x[2 * i + 1] / kK;
  }
  std::copy(scratch, scratch + n, x);
}

void inverse_line(double* x, std::size_t n, double* scratch) {
  if (n < 2) return;
  const std::size_t nl = (n + 1) / 2;
  for (std::size_t i = 0; i < nl; ++i) scratch[2 * i] = x[i] / kK;
  for (std::size_t i = 0; 2 * i + 1 < n; ++i) {
    scratch[2 * i + 1] = x[nl + i] * kK;
  }
  std::copy(scratch, scratch + n, x);
  lift(x, n, 0, -kDelta);
  lift(x, n, 1, -kGamma);
  lift(x, n, 0, -kBeta);
  lift(x, n, 1, -kAlpha);
}

}  // namespace

WaveletTransform::WaveletTransform(Shape shape, int levels)
    : shape_(std::move(shape)) {
  DimVec region = shape_.dims();
  levels_ = 0;
  regions_.clear();
  while (levels_ < levels) {
    const std::size_t min_extent =
        *std::min_element(region.begin(), region.end());
    if (min_extent < 4) break;
    regions_.push_back(region);
    for (auto& r : region) r = (r + 1) / 2;
    ++levels_;
  }
}

void WaveletTransform::transform_level(std::vector<double>& data,
                                       const DimVec& region,
                                       bool forward_dir) const {
  const std::size_t nd = shape_.ndims();
  std::vector<double> line;
  std::vector<double> scratch;

  // Dim order: forward goes 0..nd-1, inverse must undo in reverse.
  for (std::size_t step = 0; step < nd; ++step) {
    const std::size_t d = forward_dir ? step : nd - 1 - step;
    const std::size_t n = region[d];
    if (n < 2) continue;
    line.resize(n);
    scratch.resize(n);
    const std::size_t st = shape_.stride(d);

    // Enumerate line starts: all region coords with coord[d] = 0.
    DimVec c(nd, 0);
    for (;;) {
      std::size_t base = 0;
      for (std::size_t j = 0; j < nd; ++j) base += c[j] * shape_.stride(j);
      for (std::size_t i = 0; i < n; ++i) line[i] = data[base + i * st];
      if (forward_dir) {
        forward_line(line.data(), n, scratch.data());
      } else {
        inverse_line(line.data(), n, scratch.data());
      }
      for (std::size_t i = 0; i < n; ++i) data[base + i * st] = line[i];

      std::size_t j = nd;
      bool done = true;
      while (j-- > 0) {
        if (j == d) {
          if (j == 0) break;
          continue;
        }
        if (++c[j] < region[j]) {
          done = false;
          break;
        }
        c[j] = 0;
        if (j == 0) break;
      }
      if (done) {
        bool all_zero = true;
        for (std::size_t q = 0; q < nd; ++q) {
          if (q != d && c[q] != 0) {
            all_zero = false;
            break;
          }
        }
        if (all_zero) break;
      }
    }
  }
}

void WaveletTransform::forward(std::vector<double>& data) const {
  CLIZ_REQUIRE(data.size() == shape_.size(), "buffer/shape size mismatch");
  for (int l = 0; l < levels_; ++l) {
    transform_level(data, regions_[static_cast<std::size_t>(l)], true);
  }
}

void WaveletTransform::inverse(std::vector<double>& data) const {
  CLIZ_REQUIRE(data.size() == shape_.size(), "buffer/shape size mismatch");
  for (int l = levels_; l-- > 0;) {
    transform_level(data, regions_[static_cast<std::size_t>(l)], false);
  }
}

}  // namespace cliz
