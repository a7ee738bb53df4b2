#pragma once

// The committed framed entropy streams (tests/data/golden_*_framed.cliz)
// and the fields and options that wrote them. The encoder writes only the
// serial entropy container, so the decoder's framed-container checks run
// on these bytes. Each fixture carries the serial encode of its field with
// the same options: the stream it must decode to bit for bit, and the one
// fault::first_divergence diffs against to find the framing bytes (the
// first divergence is the entropy byte, whose framed copy sets bit 7).
// Test-only header, like fault_injection.hpp.
//
// The fields use IEEE add/mul arithmetic only, as the rest of the golden
// corpus does, so the checks are bit-identical across platforms.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytestream.hpp"
#include "src/common/rng.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/lossless/lossless.hpp"
#include "tests/fault_injection.hpp"

namespace cliz::framed_fixture {

inline constexpr double kEb = 1e-3;
inline constexpr float kFill = 9.96921e36f;

/// 3-D field with a per-column offset pattern (the structure bin
/// classification keys on) over a smooth trend. 14x48x100 = 67200 points:
/// a raster predictor fetches all codes in one interval, which the framed
/// writers split into two segments (one per 2^15 symbols).
template <typename T>
NdArray<T> raster_field() {
  const Shape shape({14, 48, 100});
  NdArray<T> a(shape);
  Rng rng(7007);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = 0.004 * static_cast<double>(i % 100) +
                     0.003 * static_cast<double>((i / 100) % 48) -
                     0.002 * static_cast<double>(i / 4800) +
                     0.0015 * static_cast<double>(i % 7) +
                     0.0003 * rng.uniform();
    a[i] = static_cast<T>(v);
  }
  return a;
}

struct MaskedField {
  NdArray<float> data;
  MaskMap mask;
};

/// Masked 3-D field: 24x64x96 = 147456 points with a land/sea pattern on
/// every 13th point. The last interpolation pass (odd points along dim 2)
/// holds 68057 valid targets, one decode fetch that the framed writer
/// split into two segments.
inline MaskedField interp_field() {
  const Shape shape({24, 64, 96});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(8008);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const double v = 0.004 * static_cast<double>(i % 96) +
                     0.003 * static_cast<double>((i / 96) % 64) -
                     0.002 * static_cast<double>(i / 6144) +
                     0.001 * static_cast<double>(i % 4) +
                     0.0005 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

inline ClizOptions options(PredictorBackend predictor,
                           EntropyBackend entropy) {
  ClizOptions o;
  o.predictor = predictor;
  o.entropy = entropy;
  return o;
}

inline PipelineConfig classified_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.classify_bins = true;
  return c;
}

inline std::vector<std::uint8_t> read(const std::string& file) {
  std::ifstream in(std::string(CLIZ_GOLDEN_DIR) + "/" + file,
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// One committed framed stream and its serial twin.
struct Fixture {
  std::string file;          ///< under tests/data/
  unsigned sample_bytes = 4;  ///< 4 = float, 8 = double
  bool classified = false;   ///< classification block after the entropy byte
  std::size_t segments = 0;  ///< segment count of its framing table
  std::vector<std::uint8_t> framed;  ///< the committed bytes
  std::vector<std::uint8_t> serial;  ///< serial encode, same field/options
};

/// lorenzo1 + Huffman, classified, f32: one fetch, two segments.
inline Fixture lorenzo() {
  return {"golden_lorenzo_framed.cliz", 4, true, 2,
          read("golden_lorenzo_framed.cliz"),
          ClizCompressor(classified_config(),
                         options(PredictorBackend::kLorenzo1,
                                 EntropyBackend::kHuffman))
              .compress(raster_field<float>(), kEb)};
}

/// regression + tANS, unclassified, f64: one fetch, two segments. The
/// framing layout id follows the entropy byte directly.
inline Fixture regression() {
  return {"golden_regression_framed.cliz", 8, false, 2,
          read("golden_regression_framed.cliz"),
          ClizCompressor(PipelineConfig::defaults(3),
                         options(PredictorBackend::kRegression,
                                 EntropyBackend::kTans))
              .compress(raster_field<double>(), kEb)};
}

/// interp + Huffman, classified, masked, f32, dynamic fitting: one fetch
/// per non-empty pass (17) plus the anchor, and the last pass spans two
/// segments, 19 in all.
inline Fixture interp() {
  PipelineConfig config = classified_config();
  config.dynamic_fitting = true;
  const MaskedField field = interp_field();
  return {"golden_interp_framed.cliz", 4, true, 19,
          read("golden_interp_framed.cliz"),
          ClizCompressor(config, options(PredictorBackend::kInterp,
                                         EntropyBackend::kHuffman))
              .compress(field.data, kEb, &field.mask)};
}

inline std::vector<Fixture> all() { return {lorenzo(), regression(), interp()}; }

/// Decodes a stream of either sample type into its raw sample bytes, for
/// bit-exact comparison.
inline std::vector<std::uint8_t> decode_bytes(
    std::span<const std::uint8_t> stream, unsigned sample_bytes,
    CodecContext& ctx) {
  std::vector<std::uint8_t> out;
  const auto copy = [&](const auto& array) {
    out.resize(array.size() * sample_bytes);
    std::memcpy(out.data(), array.data(), out.size());
  };
  if (sample_bytes == 8) {
    copy(ClizCompressor::decompress<double>(stream, ctx));
  } else {
    copy(ClizCompressor::decompress(stream, ctx));
  }
  return out;
}

inline std::vector<std::uint8_t> decode_bytes(
    std::span<const std::uint8_t> stream, unsigned sample_bytes) {
  CodecContext ctx;
  return decode_bytes(stream, sample_bytes, ctx);
}

using SegmentEntries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// A fixture's raw (lossless-unwrapped) bytes with its framing table
/// located by diffing against the serial twin.
struct RawFraming {
  std::vector<std::uint8_t> serial;  ///< raw serial twin
  std::vector<std::uint8_t> framed;  ///< raw framed stream
  std::size_t entropy_at = 0;        ///< the entropy byte (first divergence)
  std::size_t layout_at = 0;         ///< the framing layout id
  std::size_t table_end = 0;         ///< first byte after the segment table
  SegmentEntries segs;               ///< (n_syms, n_bytes) per segment

  /// The framed stream with its segment count and entries replaced,
  /// re-wrapped in the lossless container.
  [[nodiscard]] std::vector<std::uint8_t> spliced(
      std::uint64_t count, const SegmentEntries& entries) const {
    ByteWriter table;
    table.put_varint(count);
    for (const auto& [n_syms, n_bytes] : entries) {
      table.put_varint(n_syms);
      table.put_varint(n_bytes);
    }
    std::vector<std::uint8_t> bytes(
        framed.begin(),
        framed.begin() + static_cast<std::ptrdiff_t>(layout_at + 1));
    bytes.insert(bytes.end(), table.bytes().begin(), table.bytes().end());
    bytes.insert(bytes.end(),
                 framed.begin() + static_cast<std::ptrdiff_t>(table_end),
                 framed.end());
    return lossless_compress(bytes);
  }
};

/// Locates the entropy byte, the layout id (after the classification
/// block, which both streams share, when the fixture is classified) and
/// the segment table it opens. Callers assert the bytes they rely on.
inline RawFraming raw_framing(const Fixture& fx) {
  RawFraming r;
  r.serial = lossless_decompress(fx.serial);
  r.framed = lossless_decompress(fx.framed);
  r.entropy_at = fault::first_divergence(r.serial, r.framed);
  r.layout_at = r.entropy_at + 1;
  if (fx.classified && r.layout_at < r.serial.size() &&
      r.layout_at < r.framed.size()) {
    r.layout_at += fault::first_divergence(
        std::span(r.serial).subspan(r.layout_at),
        std::span(r.framed).subspan(r.layout_at));
  }
  std::size_t cursor = r.layout_at + 1;
  const auto read_varint = [&]() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = r.framed.at(cursor++);
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
    }
  };
  const std::uint64_t n_segments = read_varint();
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const std::uint64_t n_syms = read_varint();
    r.segs.emplace_back(n_syms, read_varint());
  }
  r.table_end = cursor;
  return r;
}

}  // namespace cliz::framed_fixture
