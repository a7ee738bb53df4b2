#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.hpp"

namespace cliz {

/// SZ-style fixed-bin-size linear-scale quantizer with outlier escape.
///
/// For a data point with prediction `pred`, the quantization bin is
/// round((value - pred) / (2*eb)); the reconstruction `pred + 2*eb*bin` is
/// then within `eb` of the original. Bins are stored shifted by `radius` so
/// they are non-negative; code 0 is reserved for "unpredictable" points
/// whose exact value travels in a side stream. Codes therefore lie in
/// [0, 2*radius).
///
/// quantize() overwrites the input value with its reconstruction so the
/// compressor predicts from exactly the values the decompressor will see.
template <typename T>
class LinearQuantizer {
 public:
  /// Largest accepted radius. Keeps every derived symbol — codes in
  /// [0, 2*radius) and CliZ's classified escape 2*radius + 2j + 2 — inside
  /// uint32 with headroom, so a corrupt stream header can never overflow
  /// the symbol arithmetic.
  static constexpr std::uint32_t kMaxRadius = 1u << 30;

  explicit LinearQuantizer(double error_bound,
                           std::uint32_t radius = 1u << 15)
      : eb_(error_bound), radius_(radius) {
    CLIZ_REQUIRE(error_bound > 0, "error bound must be positive");
    CLIZ_REQUIRE(radius >= 2, "quantizer radius too small");
    CLIZ_REQUIRE(radius <= kMaxRadius, "quantizer radius too large");
  }

  [[nodiscard]] double error_bound() const noexcept { return eb_; }
  [[nodiscard]] std::uint32_t radius() const noexcept { return radius_; }

  /// Quantizes `value` against `pred`; returns the bin code and replaces
  /// `value` with its reconstruction. Outliers are appended to `outliers`
  /// and coded as 0.
  std::uint32_t quantize(T& value, T pred, std::vector<T>& outliers) const {
    const std::uint32_t code = quantize_code(value, pred);
    if (code == 0) outliers.push_back(value);
    return code;
  }

  /// quantize() without the side stream: an escape returns 0 and leaves
  /// `value` as it was, for a caller that files the outlier itself.
  std::uint32_t quantize_code(T& value, T pred) const noexcept {
    const double diff = static_cast<double>(value) - static_cast<double>(pred);
    const double scaled = diff / (2.0 * eb_);
    if (std::abs(scaled) < static_cast<double>(radius_) - 1) {
      const auto q = static_cast<std::int64_t>(std::llround(scaled));
      const T recon =
          static_cast<T>(static_cast<double>(pred) +
                         2.0 * eb_ * static_cast<double>(q));
      // Float rounding in the reconstruction can break the bound for values
      // of large magnitude; fall back to the escape path when it does.
      if (std::abs(static_cast<double>(recon) - static_cast<double>(value)) <=
          eb_) {
        value = recon;
        return static_cast<std::uint32_t>(
            q + static_cast<std::int64_t>(radius_));
      }
    }
    return 0;
  }

  /// Inverse of quantize(). `cursor` indexes into the outlier side stream
  /// and advances when code 0 is met.
  T recover(std::uint32_t code, T pred, std::span<const T> outliers,
            std::size_t& cursor) const {
    if (code == 0) {
      CLIZ_REQUIRE(cursor < outliers.size(), "outlier stream truncated");
      return outliers[cursor++];
    }
    CLIZ_REQUIRE(code < 2 * radius_, "quantization code out of range");
    return dequantize(code, pred);
  }

  /// recover() of a non-escape code the caller has already range-checked.
  T dequantize(std::uint32_t code, T pred) const noexcept {
    const auto q = static_cast<std::int64_t>(code) -
                   static_cast<std::int64_t>(radius_);
    return static_cast<T>(static_cast<double>(pred) +
                          2.0 * eb_ * static_cast<double>(q));
  }

  /// Signed bin value of a non-outlier code (code - radius); used by CliZ's
  /// bin-shifting statistics.
  [[nodiscard]] std::int64_t signed_bin(std::uint32_t code) const {
    return static_cast<std::int64_t>(code) -
           static_cast<std::int64_t>(radius_);
  }

 private:
  double eb_;
  std::uint32_t radius_;
};

}  // namespace cliz
