#pragma once

#include <concepts>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/ndarray/shape.hpp"

namespace cliz {

/// Owning, contiguous, row-major N-dimensional array. This is the container
/// every compressor in the library consumes and produces.
template <typename T>
class NdArray {
 public:
  NdArray() = default;

  explicit NdArray(Shape shape)
      : shape_(std::move(shape)), data_(shape_.size()) {}

  NdArray(Shape shape, std::vector<T> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    CLIZ_REQUIRE(data_.size() == shape_.size(),
                 "data length does not match shape");
  }

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  [[nodiscard]] T& at(std::initializer_list<std::size_t> coords) {
    return data_[shape_.offset(std::span<const std::size_t>(
        coords.begin(), coords.size()))];
  }
  [[nodiscard]] const T& at(std::initializer_list<std::size_t> coords) const {
    return data_[shape_.offset(std::span<const std::size_t>(
        coords.begin(), coords.size()))];
  }

  /// Moves the backing storage out (the shape becomes empty-sized but the
  /// object stays valid only for destruction/assignment). Lets a reusable
  /// scratch buffer round-trip through an NdArray without a copy.
  [[nodiscard]] std::vector<T> take_flat() && { return std::move(data_); }

  /// Re-binds the array to `shape`, resizing the backing storage in place
  /// (capacity is kept, so same-shape replay loops never reallocate).
  /// Newly grown elements are value-initialized; surviving elements keep
  /// their previous values.
  void reshape(Shape shape) {
    shape_ = std::move(shape);
    data_.resize(shape_.size());
  }

  [[nodiscard]] std::span<T> flat() noexcept { return data_; }
  [[nodiscard]] std::span<const T> flat() const noexcept { return data_; }
  [[nodiscard]] T* data() noexcept { return data_.data(); }
  [[nodiscard]] const T* data() const noexcept { return data_.data(); }

 private:
  Shape shape_;
  std::vector<T> data_;
};

/// The sample types a CliZ stream stores. Every codec entry point is one
/// template over a Sample, instantiated for both.
template <typename T>
concept Sample = std::same_as<T, float> || std::same_as<T, double>;

/// Turns a runtime sample width (4 = float, 8 = double: a stream header, an
/// archive index entry, a CLI flag) into a type by calling
/// `f.template operator()<T>()`, so callers write one generic body:
///
///   with_sample_type(width, [&]<typename T>() { ... });
template <typename F>
decltype(auto) with_sample_type(unsigned width, F&& f) {
  switch (width) {
    case sizeof(float):
      return f.template operator()<float>();
    case sizeof(double):
      return f.template operator()<double>();
  }
  throw Error(ErrorCode::kCorruptStream,
              "cliz: unsupported sample width " + std::to_string(width));
}

}  // namespace cliz
