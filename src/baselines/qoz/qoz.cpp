#include "src/baselines/qoz/qoz.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/ndarray/layout.hpp"
#include "src/predictor/interp_engine.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x514F5A31u;  // "QOZ1"

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        double abs_error_bound,
                                        const QozOptions& options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  const Shape& shape = data.shape();
  const auto axes = fused_axes(shape, FusionSpec::none(shape.ndims()));

  // Tune the pass order by probing prediction error over all permutations.
  std::vector<std::size_t> order(shape.ndims());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (options.tune_order && shape.ndims() > 1) {
    const std::size_t stride = std::max<std::size_t>(
        options.probe_stride, data.size() / 65536);
    double best = std::numeric_limits<double>::infinity();
    for (const auto& cand : all_permutations(shape.ndims())) {
      const double err = interp_probe_error(
          data.data(), axes, cand, FittingKind::kCubic, nullptr, stride);
      if (err < best) {
        best = err;
        order = cand;
      }
    }
  }

  std::vector<T> work(data.flat().begin(), data.flat().end());
  const LinearQuantizer<T> quantizer(abs_error_bound, options.radius);
  std::vector<std::uint32_t> bins;
  bins.reserve(data.size());
  std::vector<T> outliers;
  std::vector<std::uint8_t> pass_fits;  // 1 = cubic, per (level, axis) pass

  bins.push_back(quantizer.quantize(work[0], T{0}, outliers));

  interp_traverse_passes(
      axes, order,
      [&](std::size_t /*s*/, std::size_t /*h*/, std::size_t /*d*/,
          auto&& run) {
        // Probe this pass: targets still hold original values, references
        // hold reconstructions — exactly what the decoder will predict from.
        double err_lin = 0.0;
        double err_cub = 0.0;
        std::size_t count = 0;
        run([&](std::size_t off, std::size_t, std::size_t,
                const InterpRefs& refs) {
          if (count++ % options.probe_stride != 0) return;
          err_lin += std::abs(static_cast<double>(interp_predict(
                          work.data(), refs, nullptr, FittingKind::kLinear)) -
                      static_cast<double>(work[off]));
          err_cub += std::abs(static_cast<double>(interp_predict(
                          work.data(), refs, nullptr, FittingKind::kCubic)) -
                      static_cast<double>(work[off]));
        });
        const FittingKind fit =
            err_cub <= err_lin ? FittingKind::kCubic : FittingKind::kLinear;
        pass_fits.push_back(fit == FittingKind::kCubic ? 1 : 0);

        run([&](std::size_t off, std::size_t, std::size_t,
                const InterpRefs& refs) {
          const T pred = interp_predict(work.data(), refs, nullptr, fit);
          bins.push_back(quantizer.quantize(work[off], pred, outliers));
        });
      });

  ByteWriter out;
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put_varint(options.radius);
  for (const std::size_t d : order) out.put_varint(d);
  out.put_varint(pass_fits.size());
  out.put_bytes(pass_fits);
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
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not a QoZ stream");
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
  std::vector<std::size_t> order(ndims);
  for (auto& d : order) d = static_cast<std::size_t>(in.get_varint());
  const std::size_t n_passes = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_passes <= 64 * kMaxAxes, "corrupt pass count");
  const auto pass_fit_bytes = in.get_bytes(n_passes);
  const std::size_t n_outliers = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_outliers <= shape.size(), "corrupt outlier count");
  std::vector<T> outliers(n_outliers);
  for (auto& v : outliers) v = in.get<T>();

  ByteReader table_reader(in.get_block());
  const auto codec = HuffmanCodec::deserialize(table_reader);
  BitReader bits(in.get_block());

  NdArray<T> out(shape);
  const auto axes = fused_axes(shape, FusionSpec::none(ndims));
  const LinearQuantizer<T> quantizer(eb, radius);
  std::size_t cursor = 0;

  out[0] = quantizer.recover(codec.decode_one(bits), T{0}, outliers, cursor);

  std::size_t pass_idx = 0;
  interp_traverse_passes(
      axes, order,
      [&](std::size_t /*s*/, std::size_t /*h*/, std::size_t /*d*/,
          auto&& run) {
        CLIZ_REQUIRE(pass_idx < n_passes, "pass-fitting table truncated");
        const FittingKind fit = pass_fit_bytes[pass_idx++] != 0
                                    ? FittingKind::kCubic
                                    : FittingKind::kLinear;
        run([&](std::size_t off, std::size_t, std::size_t,
                const InterpRefs& refs) {
          const T pred = interp_predict(out.data(), refs, nullptr, fit);
          out[off] = quantizer.recover(codec.decode_one(bits), pred, outliers,
                                       cursor);
        });
      });
  return out;
}

}  // namespace

std::vector<std::uint8_t> QozCompressor::compress(
    const NdArray<float>& data, double abs_error_bound) const {
  return compress_impl(data, abs_error_bound, options_);
}

NdArray<float> QozCompressor::decompress(
    std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(stream);
}

}  // namespace cliz
