#include "src/baselines/sperr/sperr_like.hpp"

#include <cmath>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/quantizer/linear_quantizer.hpp"
#include "src/baselines/sperr/wavelet.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x53505252u;  // "SPRR"

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        double abs_error_bound,
                                        const SperrOptions& options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  const Shape& shape = data.shape();
  const WaveletTransform wavelet(shape, options.levels);

  std::vector<double> coeffs(data.flat().begin(), data.flat().end());
  wavelet.forward(coeffs);

  // Quantize coefficients against prediction 0; the quantizer mutates the
  // buffer to the reconstructed coefficients, which we then invert to find
  // the residual outliers the bound still needs corrected.
  const double coeff_eb = abs_error_bound * options.coeff_tolerance_ratio;
  const LinearQuantizer<double> quantizer(coeff_eb);
  std::vector<std::uint32_t> bins(coeffs.size());
  std::vector<double> escapes;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    bins[i] = quantizer.quantize(coeffs[i], 0.0, escapes);
  }

  std::vector<double> recon = coeffs;
  wavelet.inverse(recon);

  // Outlier corrections: quantize each violating residual to step
  // abs_error_bound so the corrected value lands within tol/2.
  ByteWriter corrections;
  std::size_t n_corrections = 0;
  std::size_t prev_index = 0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    // Compare against the T-cast value the decompressor will emit, with a
    // small margin so the final double->T rounding cannot break the bound.
    const double residual =
        static_cast<double>(data[i]) -
        static_cast<double>(static_cast<T>(recon[i]));
    if (std::abs(residual) > 0.98 * abs_error_bound) {
      corrections.put_varint(i - prev_index);
      const double scaled = residual / abs_error_bound;
      // An additive correction only works when neither the correction nor
      // the reconstructed value is so large that double/float rounding at
      // that magnitude swallows the bound.
      const bool additive_safe = std::abs(scaled) < 0x1p30 &&
                                 std::abs(recon[i]) < 0x1p30 * abs_error_bound;
      if (additive_safe) {
        corrections.put_svarint(static_cast<std::int64_t>(
            std::llround(scaled)));
      } else {
        // Huge residual (e.g. wavelet leakage from 1e36 fill values into
        // neighbouring points): an additive correction would lose the
        // bound to catastrophic cancellation in double, so store the exact
        // value instead, flagged by the reserved code 0.
        corrections.put_svarint(0);
        corrections.put(data[i]);  // exact T
      }
      prev_index = i;
      ++n_corrections;
    }
  }

  ByteWriter out;
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put(options.coeff_tolerance_ratio);
  out.put_varint(static_cast<std::uint64_t>(wavelet.levels()));
  out.put_varint(escapes.size());
  for (const double v : escapes) out.put(v);
  out.put_varint(n_corrections);
  out.put_block(corrections.bytes());

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
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not a SPERR-like stream");
  CLIZ_REQUIRE(in.get_u8() == sizeof(T),
               "stream sample type does not match the decompress variant");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= 8, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  const Shape shape(dims);
  const auto eb = in.get<double>();
  const auto ratio = in.get<double>();
  CLIZ_REQUIRE(eb > 0 && ratio > 0, "corrupt tolerance");
  const auto levels = static_cast<int>(in.get_varint());
  const std::size_t n_escapes = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_escapes <= shape.size(), "corrupt escape count");
  std::vector<double> escapes(n_escapes);
  for (auto& v : escapes) v = in.get<double>();
  const std::size_t n_corrections = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_corrections <= shape.size(), "corrupt correction count");
  const auto correction_bytes = in.get_block();

  ByteReader table_reader(in.get_block());
  const auto codec = HuffmanCodec::deserialize(table_reader);
  BitReader bits(in.get_block());

  const WaveletTransform wavelet(shape, levels);
  CLIZ_REQUIRE(wavelet.levels() == levels, "level count mismatch");

  const LinearQuantizer<double> quantizer(eb * ratio);
  std::vector<double> coeffs(shape.size());
  std::size_t cursor = 0;
  for (auto& c : coeffs) {
    c = quantizer.recover(codec.decode_one(bits), 0.0, escapes, cursor);
  }
  wavelet.inverse(coeffs);

  ByteReader corr(correction_bytes);
  std::size_t index = 0;
  for (std::size_t k = 0; k < n_corrections; ++k) {
    index += static_cast<std::size_t>(corr.get_varint());
    CLIZ_REQUIRE(index < coeffs.size(), "correction index out of range");
    const std::int64_t cq = corr.get_svarint();
    if (cq == 0) {
      coeffs[index] = static_cast<double>(corr.get<T>());  // exact escape
    } else {
      coeffs[index] += static_cast<double>(cq) * eb;
    }
  }

  NdArray<T> out(shape);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    out[i] = static_cast<T>(coeffs[i]);
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> SperrLikeCompressor::compress(
    const NdArray<float>& data, double abs_error_bound) const {
  return compress_impl(data, abs_error_bound, options_);
}

NdArray<float> SperrLikeCompressor::decompress(
    std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(stream);
}

}  // namespace cliz
