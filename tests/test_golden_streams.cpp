// Golden-stream corpus: compressed frames committed to the repository
// (tests/data/) that every future revision must keep decoding — and, since
// CliZ streams are deterministic, keep reproducing bit-for-bit on
// compression. A format or codec change that alters streams fails here
// first; if the change is intentional, regenerate the corpus by running
// this binary with CLIZ_REGEN_GOLDEN=1 and commit the new files.
//
// The synthetic inputs are rebuilt in-process from the repo PRNG using
// only IEEE add/mul arithmetic (no libm transcendentals), so the corpus
// and the checks are bit-identical across platforms and libc versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "tests/fault_injection.hpp"
#include "tests/framed_fixtures.hpp"

namespace cliz {
namespace {

constexpr double kEb = 1e-3;
constexpr float kFill = 9.96921e36f;

std::string golden_path(const char* file) {
  return std::string(CLIZ_GOLDEN_DIR) + "/" + file;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (regenerate the corpus with CLIZ_REGEN_GOLDEN=1)";
    return {};
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << "cannot write " << path;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- deterministic inputs (IEEE arithmetic only) -------------------------

/// Smooth-ish 2-D field: linear trends + a small integer texture + noise.
NdArray<float> plain_field() {
  const Shape shape({40, 48});
  NdArray<float> a(shape);
  Rng rng(1001);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 48; ++c) {
      const double v = 0.03 * static_cast<double>(r) -
                       0.015 * static_cast<double>(c) +
                       0.25 * static_cast<double>((r + c) % 9) +
                       0.05 * rng.uniform();
      a[r * 48 + c] = static_cast<float>(v);
    }
  }
  return a;
}

struct MaskedField {
  NdArray<float> data;
  MaskMap mask;
};

/// 3-D field with a land/sea-style mask on every 13th point.
MaskedField masked_field() {
  const Shape shape({16, 12, 14});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(2002);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const double v = 0.1 * static_cast<double>(i % 14) -
                     0.07 * static_cast<double>((i / 14) % 12) +
                     0.04 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

/// Masked 3-D field whose lossless frame is sectioned (mode 6): the same
/// coastline in every layer gives a mask that LZ shrinks, and noise of
/// about 50 bins gives a Huffman body that it cannot.
MaskedField sectioned_field() {
  const Shape shape({16, 32, 40});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(4004);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t y = (i / 40) % 32;
    const std::size_t x = i % 40;
    if ((x + 2 * y) % 11 >= 7) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    data[i] = static_cast<float>(0.01 * static_cast<double>(x) +
                                 0.1 * rng.uniform());
  }
  return {std::move(data), std::move(mask)};
}

/// 3-D field with an exact period-6 seasonal signal along dim 0.
NdArray<float> periodic_field(std::size_t steps = 36) {
  const Shape shape({steps, 10, 12});
  NdArray<float> a(shape);
  Rng rng(3003);
  for (std::size_t t = 0; t < steps; ++t) {
    // Parabolic bump over the 6-step season: 0, 5, 8, 9, 8, 5 (scaled).
    const double season =
        0.1 * static_cast<double>((t % 6) * (11 - (t % 6)));
    for (std::size_t p = 0; p < 120; ++p) {
      const double v = season + 0.02 * static_cast<double>(p % 12) +
                       0.03 * rng.uniform();
      a[t * 120 + p] = static_cast<float>(v);
    }
  }
  return a;
}

/// 3-D field for the chunked frame (odd extent: uneven slabs).
NdArray<float> chunked_field() {
  const Shape shape({30, 12, 10});
  NdArray<float> a(shape);
  Rng rng(4004);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = 0.05 * static_cast<double>(i % 120) -
                     0.002 * static_cast<double>(i / 120) +
                     0.03 * rng.uniform();
    a[i] = static_cast<float>(v);
  }
  return a;
}

/// Period-6 seasonal field with the masked_field() land/sea pattern, for
/// the tiled frame.
MaskedField masked_periodic_field() {
  const Shape shape({30, 12, 14});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(6006);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const std::size_t t = i / 168;
    const double season =
        0.1 * static_cast<double>((t % 6) * (11 - (t % 6)));
    const double v = season + 0.1 * static_cast<double>(i % 14) -
                     0.07 * static_cast<double>((i / 14) % 12) +
                     0.04 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

PipelineConfig masked_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.dynamic_fitting = true;
  c.classify_bins = true;
  return c;
}

PipelineConfig periodic_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.period = 6;
  c.time_dim = 0;
  return c;
}

std::vector<std::uint8_t> make_chunked_stream() {
  ChunkedOptions opts;
  opts.chunks = 4;
  return chunked_compress(chunked_field(), kEb, PipelineConfig::defaults(3),
                          nullptr, opts);
}

/// Period-6 slab frame over 35 steps in 3 slabs (11, 12, 12): the first
/// slab is under two periods and runs the period-free codec, the others
/// keep the periodic pipeline.
std::vector<std::uint8_t> make_periodic_chunked_stream() {
  ChunkedOptions opts;
  opts.chunks = 3;
  return chunked_compress(periodic_field(35), kEb, periodic_config(), nullptr,
                          opts);
}

PipelineConfig masked_periodic_config() {
  PipelineConfig c = masked_config();
  c.period = 6;
  c.time_dim = 0;
  return c;
}

/// Masked period-6 CLK3 frame with 14x6x7 tiles: the time tiles are 14, 14
/// and 2 steps long, so the full and the period-free codec both write tiles.
std::vector<std::uint8_t> make_tiled_stream() {
  const auto field = masked_periodic_field();
  ChunkedOptions opts;
  opts.tile = {14, 6, 7};
  return chunked_compress(field.data, kEb, masked_periodic_config(),
                          &field.mask, opts);
}

/// The tiled frame's float64 twin: the same masked field widened to
/// double, with the same mask, config and 14x6x7 tiles.
std::vector<std::uint8_t> make_tiled_f64_stream() {
  const auto field = masked_periodic_field();
  NdArray<double> wide(field.data.shape());
  for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = field.data[i];
  ChunkedOptions opts;
  opts.tile = {14, 6, 7};
  return chunked_compress(wide, kEb, masked_periodic_config(), &field.mask,
                          opts);
}

/// interp + tANS serial, classified, over the masked period-6 field.
std::vector<std::uint8_t> make_tans_stream() {
  const auto field = masked_periodic_field();
  return ClizCompressor(masked_periodic_config(),
                        framed_fixture::options(PredictorBackend::kInterp,
                                                EntropyBackend::kTans))
      .compress(field.data, kEb, &field.mask);
}

/// True when the frame holds pieces both under and at least two periods
/// long along dim 0, so both hoisted codecs wrote into it.
bool mixes_period_outcomes(std::span<const std::uint8_t> frame,
                           std::size_t period) {
  bool short_piece = false;
  bool full_piece = false;
  const ChunkedReader reader(frame);
  for (const TileRecord& t : reader.tiles()) {
    (t.extent[0] < 2 * period ? short_piece : full_piece) = true;
  }
  return short_piece && full_piece;
}

// --- corpus maintenance (must be declared first: bootstraps a fresh
// checkout when run with CLIZ_REGEN_GOLDEN=1) ----------------------------

TEST(GoldenStreams, Regenerate) {
  if (std::getenv("CLIZ_REGEN_GOLDEN") == nullptr) {
    GTEST_SKIP() << "set CLIZ_REGEN_GOLDEN=1 to rewrite the corpus";
  }
  write_file(golden_path("golden_plain.cliz"),
             ClizCompressor(PipelineConfig::defaults(2))
                 .compress(plain_field(), kEb));
  const auto mf = masked_field();
  write_file(golden_path("golden_masked.cliz"),
             ClizCompressor(masked_config()).compress(mf.data, kEb,
                                                      &mf.mask));
  write_file(golden_path("golden_periodic.cliz"),
             ClizCompressor(periodic_config())
                 .compress(periodic_field(), kEb));
  write_file(golden_path("golden_chunked.clks"), make_chunked_stream());
  write_file(golden_path("golden_chunked_periodic.clk2"),
             make_periodic_chunked_stream());
  write_file(golden_path("golden_tiled.clk3"), make_tiled_stream());
  write_file(golden_path("golden_tiled_f64.clk3"), make_tiled_f64_stream());
  write_file(golden_path("golden_tans.cliz"), make_tans_stream());
  const auto sf = sectioned_field();
  write_file(golden_path("golden_sectioned.cliz"),
             ClizCompressor(PipelineConfig::defaults(3))
                 .compress(sf.data, kEb, &sf.mask));
}

// --- the locks ----------------------------------------------------------

TEST(GoldenStreams, PlainStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = plain_field();

  CodecContext ctx;
  NdArray<float> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
            stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, MaskedStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_masked.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_field();

  const auto out = ClizCompressor::decompress(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }

  EXPECT_EQ(
      ClizCompressor(masked_config()).compress(field.data, kEb, &field.mask),
      stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, SectionedStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_sectioned.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto field = sectioned_field();

  // Sectioned at the end of the header: the header with its mask is
  // LZ-coded, the Huffman body stored without a parse.
  const LosslessFrameInfo frame = describe_lossless_frame(stream);
  EXPECT_EQ(frame.mode, 6u);
  ASSERT_EQ(frame.sections.size(), 2u);
  EXPECT_EQ(frame.sections[0].mode, 3u);
  EXPECT_LT(frame.sections[0].coded_bytes, frame.sections[0].raw_bytes);
  EXPECT_EQ(frame.sections[1].mode, 2u);

  const auto out = ClizCompressor::decompress(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }

  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(3))
                .compress(field.data, kEb, &field.mask),
            stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, PeriodicStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_periodic.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto data = periodic_field();

  CodecContext ctx;
  NdArray<float> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(ClizCompressor(periodic_config()).compress(data, kEb), stream)
      << "compressor output drifted from the committed stream";
}

TEST(GoldenStreams, ChunkedFrameDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  const auto data = chunked_field();

  ASSERT_TRUE(is_chunked_stream(stream));
  EXPECT_EQ(ChunkedReader(stream).sample_bytes(), 4u);

  ChunkedScratch scratch;
  NdArray<float> out(data.shape());
  out = chunked_decompress(stream, &scratch);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(make_chunked_stream(), stream)
      << "chunked frame drifted from the committed stream";
}

TEST(GoldenStreams, PeriodicChunkedFrameDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_chunked_periodic.clk2"));
  ASSERT_FALSE(stream.empty());
  const auto data = periodic_field(35);
  EXPECT_TRUE(mixes_period_outcomes(stream, 6));

  ChunkedScratch scratch;
  NdArray<float> out(data.shape());
  out = chunked_decompress(stream, &scratch);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  EXPECT_EQ(make_periodic_chunked_stream(), stream)
      << "periodic chunked frame drifted from the committed stream";
}

TEST(GoldenStreams, TiledFrameDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_tiled.clk3"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_periodic_field();
  EXPECT_TRUE(mixes_period_outcomes(stream, 6));

  const auto out = chunked_decompress(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }

  EXPECT_EQ(make_tiled_stream(), stream)
      << "tiled frame drifted from the committed stream";
}

TEST(GoldenStreams, TiledF64FrameDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_tiled_f64.clk3"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_periodic_field();
  EXPECT_TRUE(mixes_period_outcomes(stream, 6));
  EXPECT_EQ(ChunkedReader(stream).sample_bytes(), 8u);

  const auto out = chunked_decompress<double>(stream);
  ASSERT_EQ(out.shape(), field.data.shape());
  double max_err = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], static_cast<double>(kFill)) << "masked point " << i;
      continue;
    }
    max_err = std::max(
        max_err, std::abs(out[i] - static_cast<double>(field.data[i])));
  }
  EXPECT_LE(max_err, kEb);

  EXPECT_EQ(make_tiled_f64_stream(), stream)
      << "f64 tiled frame drifted from the committed stream";
}

// --- non-default stage backends -------------------------------------------
// The corpus above is all interp + serial Huffman. These pin the other
// predictor and entropy backends and the framed entropy container, which
// is read but no longer written: the framed fixtures are frozen, and each
// must decode bit for bit to the serial encode of its field.

TEST(GoldenStreams, TansStreamDecodesAndReproduces) {
  const auto stream = read_file(golden_path("golden_tans.cliz"));
  ASSERT_FALSE(stream.empty());
  const auto field = masked_periodic_field();

  CodecContext ctx;
  const auto out = ClizCompressor::decompress(stream, ctx);
  EXPECT_EQ(ctx.stats.entropy_backend,
            static_cast<std::uint8_t>(EntropyBackend::kTans));
  EXPECT_FALSE(ctx.stats.frame_passes);
  ASSERT_EQ(out.shape(), field.data.shape());
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }

  EXPECT_EQ(make_tans_stream(), stream)
      << "tANS stream drifted from the committed stream";
}

/// Decodes a framed fixture, checks its stats, and compares it bit for bit
/// with the decode of its serial twin.
void expect_framed_fixture_decodes(const framed_fixture::Fixture& fx,
                                   PredictorBackend predictor,
                                   EntropyBackend entropy) {
  SCOPED_TRACE(fx.file);
  ASSERT_FALSE(fx.framed.empty());
  CodecContext ctx;
  const auto out = framed_fixture::decode_bytes(fx.framed, fx.sample_bytes,
                                                ctx);
  EXPECT_EQ(ctx.stats.predictor_backend,
            static_cast<std::uint8_t>(predictor));
  EXPECT_EQ(ctx.stats.entropy_backend, static_cast<std::uint8_t>(entropy));
  EXPECT_TRUE(ctx.stats.frame_passes);
  EXPECT_EQ(ctx.stats.frame_segments, fx.segments);
  EXPECT_EQ(out, framed_fixture::decode_bytes(fx.serial, fx.sample_bytes))
      << "framed decode differs from the serial decode of the same field";
}

TEST(GoldenStreams, LorenzoFramedStreamDecodesLikeSerial) {
  const auto fx = framed_fixture::lorenzo();
  expect_framed_fixture_decodes(fx, PredictorBackend::kLorenzo1,
                                EntropyBackend::kHuffman);
  const auto data = framed_fixture::raster_field<float>();
  const auto out = ClizCompressor::decompress(fx.framed);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
}

TEST(GoldenStreams, RegressionFramedStreamDecodesLikeSerial) {
  const auto fx = framed_fixture::regression();
  expect_framed_fixture_decodes(fx, PredictorBackend::kRegression,
                                EntropyBackend::kTans);
  const auto data = framed_fixture::raster_field<double>();
  const auto out = ClizCompressor::decompress<double>(fx.framed);
  double max_err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    max_err = std::max(max_err, std::abs(data[i] - out[i]));
  }
  EXPECT_LE(max_err, kEb);
}

TEST(GoldenStreams, InterpFramedStreamDecodesLikeSerial) {
  // The one fixture whose decode fetches more than once (one fetch per
  // interpolation pass) with a fetch that spans two segments.
  const auto fx = framed_fixture::interp();
  expect_framed_fixture_decodes(fx, PredictorBackend::kInterp,
                                EntropyBackend::kHuffman);
  CodecContext ctx;
  const auto out = ClizCompressor::decompress(fx.framed, ctx);
  ASSERT_EQ(ctx.frame_segments.size(), 19u);
  EXPECT_EQ(ctx.frame_segments[17].n_syms + ctx.frame_segments[18].n_syms,
            68057u);
  const auto field = framed_fixture::interp_field();
  EXPECT_LE(
      error_stats(field.data.flat(), out.flat(), &field.mask).max_abs_error,
      kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!field.mask.valid(i)) {
      ASSERT_EQ(out[i], kFill) << "masked point " << i;
    }
  }
}

// --- thread-count invariance --------------------------------------------
// The line-parallel engine, block-split lossless backend, and chunked path
// partition work by size only, never by worker count, so every stream must
// come out byte-identical at any thread setting — and identical to the
// committed corpus above. Running the whole corpus at several counts also
// drives the std::thread backend under TSan (this binary matches the
// thread-sanitize job's test regex).

/// Restores the entry thread count on scope exit so a failing assertion
/// cannot leak a modified global setting into later tests.
struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

TEST(GoldenStreams, StreamsAreThreadCountInvariant) {
  const auto data = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  const std::vector<std::uint8_t> golden_plain =
      read_file(golden_path("golden_plain.cliz"));
  const std::vector<std::uint8_t> golden_masked =
      read_file(golden_path("golden_masked.cliz"));
  const std::vector<std::uint8_t> golden_periodic =
      read_file(golden_path("golden_periodic.cliz"));
  const std::vector<std::uint8_t> golden_chunked =
      read_file(golden_path("golden_chunked.clks"));
  const std::vector<std::uint8_t> golden_chunked_periodic =
      read_file(golden_path("golden_chunked_periodic.clk2"));
  const std::vector<std::uint8_t> golden_tiled =
      read_file(golden_path("golden_tiled.clk3"));
  const std::vector<std::uint8_t> golden_tiled_f64 =
      read_file(golden_path("golden_tiled_f64.clk3"));
  const std::vector<std::uint8_t> golden_tans =
      read_file(golden_path("golden_tans.cliz"));
  const auto sf = sectioned_field();
  const std::vector<std::uint8_t> golden_sectioned =
      read_file(golden_path("golden_sectioned.cliz"));
  // The framed fixtures are read-only: each thread count must decode them
  // to the serial decode of their field.
  std::vector<std::vector<std::uint8_t>> serial_decodes;
  const auto framed = framed_fixture::all();
  for (const auto& fx : framed) {
    serial_decodes.push_back(
        framed_fixture::decode_bytes(fx.serial, fx.sample_bytes));
  }
  ASSERT_FALSE(golden_plain.empty());

  ThreadCountGuard guard;
  const int max_threads = std::max(4, guard.saved);
  for (const int threads : {1, 2, max_threads}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
              golden_plain)
        << "plain stream differs at " << threads << " thread(s)";
    EXPECT_EQ(
        ClizCompressor(masked_config()).compress(mf.data, kEb, &mf.mask),
        golden_masked)
        << "masked stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(periodic_config()).compress(periodic, kEb),
              golden_periodic)
        << "periodic stream differs at " << threads << " thread(s)";
    EXPECT_EQ(make_chunked_stream(), golden_chunked)
        << "chunked frame differs at " << threads << " thread(s)";
    EXPECT_EQ(make_periodic_chunked_stream(), golden_chunked_periodic)
        << "periodic chunked frame differs at " << threads << " thread(s)";
    EXPECT_EQ(make_tiled_stream(), golden_tiled)
        << "tiled frame differs at " << threads << " thread(s)";
    EXPECT_EQ(make_tiled_f64_stream(), golden_tiled_f64)
        << "f64 tiled frame differs at " << threads << " thread(s)";
    EXPECT_EQ(make_tans_stream(), golden_tans)
        << "tANS stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(3))
                  .compress(sf.data, kEb, &sf.mask),
              golden_sectioned)
        << "sectioned stream differs at " << threads << " thread(s)";
    for (std::size_t f = 0; f < framed.size(); ++f) {
      EXPECT_EQ(framed_fixture::decode_bytes(framed[f].framed,
                                             framed[f].sample_bytes),
                serial_decodes[f])
          << framed[f].file << " decodes differently at " << threads
          << " thread(s)";
    }
  }
}

/// Big enough to cross both the line-parallel grain (4096 targets per
/// pass) and the lossless block-split threshold (1 MiB of residuals would
/// need a huge field, so this locks the line-parallel path; the block
/// split has its own invariance lock in test_lossless.cpp). Round-trips
/// and compares streams across thread counts without a committed fixture.
TEST(GoldenStreams, LargeFieldThreadCountInvariant) {
  const Shape shape({48, 96, 80});
  NdArray<float> big(shape);
  Rng rng(5005);
  for (std::size_t i = 0; i < big.size(); ++i) {
    const double v = 0.02 * static_cast<double>(i % 96) -
                     0.01 * static_cast<double>((i / 96) % 80) +
                     0.05 * rng.uniform();
    big[i] = static_cast<float>(v);
  }
  PipelineConfig cfg = PipelineConfig::defaults(3);
  cfg.dynamic_fitting = true;

  ThreadCountGuard guard;
  set_thread_count(1);
  const auto serial = ClizCompressor(cfg).compress(big, kEb);
  for (const int threads : {2, std::max(4, guard.saved)}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(cfg).compress(big, kEb), serial)
        << "stream differs at " << threads << " thread(s)";
  }

  const auto out = ClizCompressor::decompress(serial);
  EXPECT_LE(error_stats(big.flat(), out.flat()).max_abs_error, kEb);
}

// --- retired v1 fixtures ------------------------------------------------
// Frozen copies of the corpus as the checksum-less v1 code wrote it. The
// v1 formats are retired: every decode entry point and the width probe
// refuse them with kUnsupported, naming the retired format.

TEST(GoldenStreams, V1PlainStreamRefused) {
  const auto stream = read_file(golden_path("v1_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  CodecContext ctx;
  NdArray<float> out(plain_field().shape());
  fault::expect_retired(
      [&] { ClizCompressor::decompress_into(stream, ctx, out); },
      "lossless mode 0");
  fault::expect_retired([&] { (void)detect_sample_bytes(stream); },
                        "lossless mode 0");
}

TEST(GoldenStreams, V1MaskedStreamRefused) {
  const auto stream = read_file(golden_path("v1_masked.cliz"));
  ASSERT_FALSE(stream.empty());
  fault::expect_retired([&] { (void)ClizCompressor::decompress(stream); },
                        "lossless mode 1");
}

TEST(GoldenStreams, V1PeriodicStreamRefused) {
  const auto stream = read_file(golden_path("v1_periodic.cliz"));
  ASSERT_FALSE(stream.empty());
  fault::expect_retired([&] { (void)ClizCompressor::decompress(stream); },
                        "lossless mode 0");
}

TEST(GoldenStreams, V1ChunkedFrameRefused) {
  const auto stream = read_file(golden_path("v1_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  // The CLKS magic is still recognised, so the frame reaches the typed
  // refusal rather than "not a CliZ stream".
  ASSERT_TRUE(is_chunked_stream(stream));
  fault::expect_retired([&] { ChunkedReader reader(stream); }, "CLKS");
  ChunkedScratch scratch;
  NdArray<float> out(chunked_field().shape());
  fault::expect_retired(
      [&] { out = chunked_decompress(stream, &scratch); }, "CLKS");
}

}  // namespace
}  // namespace cliz
