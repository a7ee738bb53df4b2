#include "src/baselines/sz3/lorenzo.hpp"

#include <array>
#include <bit>
#include <span>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x535A324Cu;  // "SZ2L"
constexpr std::size_t kMaxDims = 8;

/// First-order Lorenzo prediction at `coords` from the reconstructed
/// buffer: sum over non-empty corner subsets S of (-1)^(|S|+1) *
/// data[x - e_S]. Subsets that step outside the array are skipped, which
/// degrades gracefully to lower-dimensional Lorenzo at the borders.
template <typename T>
T lorenzo_predict(const T* data, const Shape& shape,
                  std::span<const std::size_t> coords, std::size_t offset) {
  const std::size_t nd = shape.ndims();
  double p = 0.0;
  const unsigned subsets = (1u << nd) - 1;
  for (unsigned s = 1; s <= subsets; ++s) {
    bool in_range = true;
    std::size_t off = offset;
    for (std::size_t d = 0; d < nd && in_range; ++d) {
      if ((s >> d) & 1u) {
        if (coords[d] == 0) {
          in_range = false;
        } else {
          off -= shape.stride(d);
        }
      }
    }
    if (!in_range) continue;
    const int sign = (std::popcount(s) % 2 == 1) ? 1 : -1;
    p += sign * static_cast<double>(data[off]);
  }
  return static_cast<T>(p);
}

/// Raster scan driving both sides of the codec. fn(offset, coords).
template <typename Fn>
void raster_scan(const Shape& shape, Fn&& fn) {
  std::array<std::size_t, kMaxDims> c{};
  const std::size_t nd = shape.ndims();
  for (std::size_t off = 0; off < shape.size(); ++off) {
    fn(off, std::span<const std::size_t>(c.data(), nd));
    std::size_t d = nd;
    while (d-- > 0) {
      if (++c[d] < shape.dim(d)) break;
      c[d] = 0;
    }
  }
}

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        double abs_error_bound,
                                        const LorenzoOptions& options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  const Shape& shape = data.shape();
  CLIZ_REQUIRE(shape.ndims() <= kMaxDims, "too many dimensions");

  std::vector<T> work(data.flat().begin(), data.flat().end());
  const LinearQuantizer<T> quantizer(abs_error_bound, options.radius);
  std::vector<std::uint32_t> bins;
  bins.reserve(shape.size());
  std::vector<T> outliers;
  raster_scan(shape, [&](std::size_t off, std::span<const std::size_t> c) {
    const T pred = lorenzo_predict(work.data(), shape, c, off);
    bins.push_back(quantizer.quantize(work[off], pred, outliers));
  });

  ByteWriter out;
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put_varint(options.radius);
  out.put_varint(outliers.size());
  for (const T v : outliers) out.put(v);

  const auto codec = HuffmanCodec::from_symbols(bins);
  ByteWriter table;
  codec.serialize(table);
  out.put_block(table.bytes());
  BitWriter bits;
  codec.encode(bins, bits);
  out.put_block(bits.finish());
  return lossless_compress(out.bytes());
}

template <typename T>
NdArray<T> decompress_impl(std::span<const std::uint8_t> stream) {
  const auto raw = lossless_decompress(stream);
  ByteReader in(raw);
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not an SZ2-Lorenzo stream");
  CLIZ_REQUIRE(in.get_u8() == sizeof(T),
               "stream sample type does not match the decompress variant");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= kMaxDims, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  const Shape shape(dims);
  const auto eb = in.get<double>();
  CLIZ_REQUIRE(eb > 0, "corrupt error bound");
  const auto radius = static_cast<std::uint32_t>(in.get_varint());
  const std::size_t n_outliers = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_outliers <= shape.size(), "corrupt outlier count");
  std::vector<T> outliers(n_outliers);
  for (auto& v : outliers) v = in.get<T>();

  ByteReader table_reader(in.get_block());
  const auto codec = HuffmanCodec::deserialize(table_reader);
  BitReader bits(in.get_block());

  NdArray<T> out(shape);
  const LinearQuantizer<T> quantizer(eb, radius);
  std::size_t cursor = 0;
  raster_scan(shape, [&](std::size_t off, std::span<const std::size_t> c) {
    const T pred = lorenzo_predict(out.data(), shape, c, off);
    out[off] = quantizer.recover(codec.decode_one(bits), pred, outliers,
                                 cursor);
  });
  return out;
}

}  // namespace

std::vector<std::uint8_t> LorenzoCompressor::compress(
    const NdArray<float>& data, double abs_error_bound) const {
  return compress_impl(data, abs_error_bound, options_);
}

NdArray<float> LorenzoCompressor::decompress(
    std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(stream);
}

}  // namespace cliz
