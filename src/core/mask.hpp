#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytestream.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Validity mask over a dataset (paper section V-A): climate files mark
/// uninteresting regions (e.g. land in an ocean field) with huge fill
/// values and ship a mask map naming the valid points. CliZ skips masked
/// points entirely and excludes them from predictions.
class MaskMap {
 public:
  /// All points valid.
  static MaskMap all_valid(Shape shape);

  /// Derives the mask from the data itself: points with |value| >=
  /// `fill_threshold` (or non-finite) are invalid. CESM fill values are
  /// ~1e36, so the default threshold separates them from any physical
  /// quantity.
  static MaskMap from_fill_values(const NdArray<float>& data,
                                  double fill_threshold = 1e30);
  static MaskMap from_fill_values(const NdArray<double>& data,
                                  double fill_threshold = 1e30);

  /// Broadcast of a spatial mask (trailing dims of `full`) along the
  /// leading dims; climate masks are typically per-(lat,lon) and shared by
  /// every snapshot/level.
  static MaskMap broadcast(const MaskMap& spatial, const Shape& full);

  void serialize(ByteWriter& out) const;  // run-length encoded
  static MaskMap deserialize(ByteReader& in);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] bool valid(std::size_t offset) const {
    return valid_[offset] != 0;
  }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return valid_.data();
  }
  [[nodiscard]] std::uint8_t* mutable_data() noexcept { return valid_.data(); }
  [[nodiscard]] std::size_t count_valid() const;
  [[nodiscard]] std::size_t size() const noexcept { return valid_.size(); }

  /// Extracts the sub-mask for a rectangular region (used by the
  /// auto-tuner's block sampling).
  [[nodiscard]] MaskMap crop(std::span<const std::size_t> start,
                             const Shape& region) const;

 private:
  MaskMap(Shape shape, std::vector<std::uint8_t> valid)
      : shape_(std::move(shape)), valid_(std::move(valid)) {}

  Shape shape_;
  std::vector<std::uint8_t> valid_;
};

}  // namespace cliz
