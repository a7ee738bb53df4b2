#include "src/core/mask.hpp"

#include <algorithm>
#include <cmath>

namespace cliz {

MaskMap MaskMap::all_valid(Shape shape) {
  std::vector<std::uint8_t> v(shape.size(), 1);
  return MaskMap(std::move(shape), std::move(v));
}

namespace {

template <typename T>
std::vector<std::uint8_t> validity_from_fill(const NdArray<T>& data,
                                             double fill_threshold) {
  std::vector<std::uint8_t> v(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double x = static_cast<double>(data[i]);
    v[i] = (std::isfinite(x) && std::abs(x) < fill_threshold) ? 1 : 0;
  }
  return v;
}

}  // namespace

MaskMap MaskMap::from_fill_values(const NdArray<float>& data,
                                  double fill_threshold) {
  return MaskMap(data.shape(), validity_from_fill(data, fill_threshold));
}

MaskMap MaskMap::from_fill_values(const NdArray<double>& data,
                                  double fill_threshold) {
  return MaskMap(data.shape(), validity_from_fill(data, fill_threshold));
}

MaskMap MaskMap::broadcast(const MaskMap& spatial, const Shape& full) {
  const std::size_t spatial_size = spatial.shape().size();
  CLIZ_REQUIRE(full.size() % spatial_size == 0,
               "full shape is not a multiple of the spatial mask");
  // The spatial mask must match the trailing dims; row-major layout then
  // makes the broadcast a simple tiling.
  const std::size_t repeats = full.size() / spatial_size;
  std::vector<std::uint8_t> v(full.size());
  for (std::size_t r = 0; r < repeats; ++r) {
    std::copy(spatial.valid_.begin(), spatial.valid_.end(),
              v.begin() + static_cast<std::ptrdiff_t>(r * spatial_size));
  }
  return MaskMap(full, std::move(v));
}

void MaskMap::serialize(ByteWriter& out) const {
  out.put_varint(shape_.ndims());
  for (const std::size_t d : shape_.dims()) out.put_varint(d);
  // Run-length encoding: first value, then alternating run lengths.
  out.put_u8(valid_.empty() ? 0 : valid_[0]);
  for (auto it = valid_.begin(); it != valid_.end();) {
    const std::uint8_t cur = *it;
    const auto run_end = std::find_if(
        it, valid_.end(), [cur](std::uint8_t v) { return v != cur; });
    out.put_varint(static_cast<std::uint64_t>(run_end - it));
    it = run_end;
  }
  out.put_varint(0);  // terminator
}

MaskMap MaskMap::deserialize(ByteReader& in) {
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= 8, "corrupt mask dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  Shape shape(dims);
  std::vector<std::uint8_t> v;
  v.reserve(shape.size());
  std::uint8_t cur = in.get_u8();
  CLIZ_REQUIRE(cur <= 1, "corrupt mask start value");
  for (;;) {
    const std::uint64_t run = in.get_varint();
    if (run == 0) break;
    CLIZ_REQUIRE(v.size() + run <= shape.size(), "mask runs exceed shape");
    v.insert(v.end(), static_cast<std::size_t>(run), cur);
    cur = cur ^ 1u;
  }
  CLIZ_REQUIRE(v.size() == shape.size(), "mask runs do not cover shape");
  return MaskMap(std::move(shape), std::move(v));
}

std::size_t MaskMap::count_valid() const {
  std::size_t n = 0;
  for (const std::uint8_t v : valid_) n += v;
  return n;
}

MaskMap MaskMap::crop(std::span<const std::size_t> start,
                      const Shape& region) const {
  CLIZ_REQUIRE(start.size() == shape_.ndims(), "crop arity mismatch");
  CLIZ_REQUIRE(region.ndims() == shape_.ndims(), "crop region arity mismatch");
  const std::size_t nd = region.ndims();
  for (std::size_t d = 0; d < nd; ++d) {
    CLIZ_REQUIRE(start[d] < shape_.dim(d) &&
                     region.dim(d) <= shape_.dim(d) - start[d],
                 "crop out of range");
  }
  // Copy whole innermost rows; `c` walks the outer coordinates of the
  // region in row-major order.
  const std::size_t row = region.dim(nd - 1);
  std::vector<std::uint8_t> v(region.size());
  DimVec c(nd, 0);
  for (std::size_t out = 0; out < v.size(); out += row) {
    std::size_t src = start[nd - 1];
    for (std::size_t d = 0; d + 1 < nd; ++d) {
      src += (start[d] + c[d]) * shape_.strides()[d];
    }
    std::copy_n(valid_.begin() + static_cast<std::ptrdiff_t>(src), row,
                v.begin() + static_cast<std::ptrdiff_t>(out));
    for (std::size_t d = nd - 1; d-- > 0;) {
      if (++c[d] < region.dim(d)) break;
      c[d] = 0;
    }
  }
  return MaskMap(region, std::move(v));
}

}  // namespace cliz
