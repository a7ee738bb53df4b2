#include "src/baselines/sz3/sz3.hpp"

#include <numeric>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/ndarray/layout.hpp"
#include "src/predictor/interp_engine.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x535A334Cu;  // "SZ3L"

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        double abs_error_bound,
                                        const Sz3Options& options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  const Shape& shape = data.shape();
  const auto axes = fused_axes(shape, FusionSpec::none(shape.ndims()));
  std::vector<std::size_t> order(shape.ndims());
  std::iota(order.begin(), order.end(), std::size_t{0});

  // Dynamic spline selection: probe both fittings on the original values.
  FittingKind fit = options.fitting;
  if (!options.force_fitting) {
    const std::size_t stride = std::max<std::size_t>(1, data.size() / 65536);
    const double err_lin = interp_probe_error(
        data.data(), axes, order, FittingKind::kLinear, nullptr, stride);
    const double err_cub = interp_probe_error(
        data.data(), axes, order, FittingKind::kCubic, nullptr, stride);
    fit = err_cub <= err_lin ? FittingKind::kCubic : FittingKind::kLinear;
  }

  std::vector<T> work(data.flat().begin(), data.flat().end());
  const LinearQuantizer<T> quantizer(abs_error_bound, options.radius);
  std::vector<std::uint32_t> bins;
  bins.reserve(data.size());
  std::vector<T> outliers;
  interp_encode(work.data(), axes, order, fit, quantizer, outliers, nullptr,
                [&](std::size_t /*off*/, std::uint32_t code) {
                  bins.push_back(code);
                });

  ByteWriter out;
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put_varint(options.radius);
  out.put_u8(static_cast<std::uint8_t>(fit));
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
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not an SZ3 stream");
  CLIZ_REQUIRE(in.get_u8() == sizeof(T),
               "stream sample type does not match the decompress variant");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= kMaxAxes, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  const Shape shape(dims);
  const auto eb = in.get<double>();
  CLIZ_REQUIRE(eb > 0, "corrupt error bound");
  const auto radius = static_cast<std::uint32_t>(in.get_varint());
  const auto fit = static_cast<FittingKind>(in.get_u8());
  const std::size_t n_outliers = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_outliers <= shape.size(), "corrupt outlier count");
  std::vector<T> outliers(n_outliers);
  for (auto& v : outliers) v = in.get<T>();

  ByteReader table_reader(in.get_block());
  const auto codec = HuffmanCodec::deserialize(table_reader);
  BitReader bits(in.get_block());

  NdArray<T> out(shape);
  const auto axes = fused_axes(shape, FusionSpec::none(ndims));
  std::vector<std::size_t> order(ndims);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const LinearQuantizer<T> quantizer(eb, radius);
  std::size_t cursor = 0;
  interp_decode(out.data(), axes, order, fit, quantizer,
                std::span<const T>(outliers), cursor, nullptr,
                [&](std::size_t /*off*/) { return codec.decode_one(bits); });
  return out;
}

}  // namespace

std::vector<std::uint8_t> Sz3Compressor::compress(
    const NdArray<float>& data, double abs_error_bound) const {
  return compress_impl(data, abs_error_bound, options_);
}

NdArray<float> Sz3Compressor::decompress(
    std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(stream);
}

}  // namespace cliz
