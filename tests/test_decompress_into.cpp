// decompress_into contract tests: the caller-supplied-output decode path
// produces exactly the values of the returning variant (both sample types,
// array and span bindings), rejects wrong shapes / sizes / sample types
// before touching the output, and — the point of the API — reaches a
// single-digit-allocation steady state when driven through a reused
// CodecContext. Chunked frames reach a per-chunk bounded steady state
// through a reused ChunkedScratch.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/metrics/metrics.hpp"

#include "tests/alloc_guard.hpp"

namespace cliz {
namespace {

struct TestField {
  NdArray<float> data;
  MaskMap mask;
};

/// Masked, periodic synthetic field in the SSH mould: [time][lat][lon].
TestField make_field(std::size_t n_time, std::size_t n_lat, std::size_t n_lon,
                     std::uint64_t seed) {
  const Shape shape({n_time, n_lat, n_lon});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(seed);
  for (std::size_t t = 0; t < n_time; ++t) {
    for (std::size_t la = 0; la < n_lat; ++la) {
      for (std::size_t lo = 0; lo < n_lon; ++lo) {
        const std::size_t off = (t * n_lat + la) * n_lon + lo;
        if ((la * n_lon + lo) % 17 == 0) {
          mask.mutable_data()[off] = 0;
          data[off] = 9.96921e36f;
          continue;
        }
        const double space = std::sin(0.2 * static_cast<double>(la)) +
                             std::cos(0.15 * static_cast<double>(lo));
        const double season =
            std::cos(2.0 * std::numbers::pi * static_cast<double>(t) / 12.0);
        data[off] =
            static_cast<float>(space + 0.5 * season + 0.01 * rng.normal());
      }
    }
  }
  return {std::move(data), std::move(mask)};
}

PipelineConfig make_config(bool dynamic, bool classify, std::size_t period) {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.dynamic_fitting = dynamic;
  c.classify_bins = classify;
  c.period = period;
  c.time_dim = 0;
  return c;
}

// --- value equality with the returning variant --------------------------

TEST(DecompressInto, MatchesReturningVariantAcrossConfigs) {
  const auto field = make_field(24, 12, 14, 99);
  const double eb = 1e-3;
  CodecContext ctx;
  NdArray<float> out(field.data.shape());

  for (const bool dynamic : {false, true}) {
    for (const bool classify : {false, true}) {
      for (const std::size_t period : {std::size_t{0}, std::size_t{12}}) {
        const ClizCompressor comp(make_config(dynamic, classify, period));
        const auto stream = comp.compress(field.data, eb, &field.mask);
        const auto expected = ClizCompressor::decompress(stream);

        ClizCompressor::decompress_into(stream, ctx, out);
        ASSERT_EQ(out.shape(), expected.shape());
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], expected[i])
              << "i=" << i << " dynamic=" << dynamic
              << " classify=" << classify << " period=" << period;
        }
      }
    }
  }
}

TEST(DecompressInto, ContextFreeOverloadMatches) {
  const auto field = make_field(16, 10, 12, 5);
  const auto stream = ClizCompressor(make_config(true, true, 0))
                          .compress(field.data, 1e-3, &field.mask);
  const auto expected = ClizCompressor::decompress(stream);
  NdArray<float> out(field.data.shape());
  ClizCompressor::decompress_into(stream, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], expected[i]);
  }
}

TEST(DecompressInto, Float64MatchesReturningVariant) {
  NdArray<double> data(Shape({18, 9, 11}));
  Rng rng(13);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.04 * static_cast<double>(i)) + 0.01 * rng.normal();
  }
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-5);
  const auto expected = ClizCompressor::decompress<double>(stream);

  CodecContext ctx;
  NdArray<double> out(data.shape());
  ClizCompressor::decompress_into(stream, ctx, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], expected[i]);
  }
}

TEST(DecompressInto, SpanVariantReturnsShapeAndValues) {
  const auto field = make_field(12, 8, 10, 3);
  const auto stream = ClizCompressor(make_config(true, false, 0))
                          .compress(field.data, 1e-3, &field.mask);
  const auto expected = ClizCompressor::decompress(stream);

  CodecContext ctx;
  std::vector<float> buf(field.data.size());
  const Shape shape = ClizCompressor::decompress_into(
      stream, ctx, std::span<float>(buf));
  EXPECT_EQ(shape, field.data.shape());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    ASSERT_EQ(buf[i], expected[i]);
  }
}

// --- error paths --------------------------------------------------------

TEST(DecompressInto, WrongShapeThrowsBeforeWriting) {
  const auto field = make_field(12, 8, 10, 6);
  const auto stream = ClizCompressor(make_config(true, true, 0))
                          .compress(field.data, 1e-3, &field.mask);
  CodecContext ctx;

  // Same element count, different shape: still rejected.
  NdArray<float> transposed(Shape({10, 8, 12}));
  for (std::size_t i = 0; i < transposed.size(); ++i) {
    transposed[i] = -1.0f;  // sentinel
  }
  EXPECT_THROW(ClizCompressor::decompress_into(stream, ctx, transposed),
               Error);
  for (std::size_t i = 0; i < transposed.size(); ++i) {
    ASSERT_EQ(transposed[i], -1.0f) << "output written despite shape reject";
  }

  NdArray<float> small(Shape({4, 4}));
  EXPECT_THROW(ClizCompressor::decompress_into(stream, ctx, small), Error);
  NdArray<float> empty;
  EXPECT_THROW(ClizCompressor::decompress_into(stream, ctx, empty), Error);
}

TEST(DecompressInto, WrongSpanSizeThrows) {
  const auto field = make_field(12, 8, 10, 7);
  const auto stream = ClizCompressor(make_config(false, false, 0))
                          .compress(field.data, 1e-3, nullptr);
  CodecContext ctx;

  std::vector<float> small(field.data.size() - 1);
  EXPECT_THROW((void)ClizCompressor::decompress_into(stream, ctx,
                                                     std::span<float>(small)),
               Error);
  std::vector<float> big(field.data.size() + 1);
  EXPECT_THROW((void)ClizCompressor::decompress_into(stream, ctx,
                                                     std::span<float>(big)),
               Error);
}

TEST(DecompressInto, SampleTypeMismatchThrows) {
  const auto field = make_field(12, 8, 10, 9);
  const auto f32_stream = ClizCompressor(make_config(false, false, 0))
                              .compress(field.data, 1e-3, nullptr);
  NdArray<double> f64_data(field.data.shape());
  for (std::size_t i = 0; i < f64_data.size(); ++i) {
    f64_data[i] = static_cast<double>(field.data[i]);
  }
  const auto f64_stream =
      ClizCompressor(make_config(false, false, 0)).compress(f64_data, 1e-3);

  CodecContext ctx;
  NdArray<float> f32_out(field.data.shape());
  NdArray<double> f64_out(field.data.shape());
  EXPECT_THROW(ClizCompressor::decompress_into(f64_stream, ctx, f32_out),
               Error);
  EXPECT_THROW(ClizCompressor::decompress_into(f32_stream, ctx, f64_out),
               Error);
}

// --- steady-state allocation profile ------------------------------------

TEST(DecompressInto, SteadyStateSingleDigitAllocations) {
  const auto field = make_field(30, 16, 18, 42);
  const auto stream = ClizCompressor(make_config(true, false, 0))
                          .compress(field.data, 1e-3, nullptr);

  CodecContext ctx;
  NdArray<float> out(field.data.shape());
  // Cold run through a fresh context, for the collapse comparison.
  const std::size_t cold0 = g_alloc_count.load(std::memory_order_relaxed);
  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t cold_count =
      g_alloc_count.load(std::memory_order_relaxed) - cold0;

  // Warm-up second call (capacities settle), then measure the third.
  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t count0 = g_alloc_count.load(std::memory_order_relaxed);
  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t steady_count =
      g_alloc_count.load(std::memory_order_relaxed) - count0;

  // The acceptance bar of the into-API: repeated same-shape decodes
  // through one context are single-digit-allocation events (the decoded
  // Shape's two vectors plus incidentals), versus hundreds cold.
  EXPECT_LE(steady_count, 10u);
  EXPECT_LT(steady_count * 10, cold_count)
      << "steady=" << steady_count << " cold=" << cold_count;
}

TEST(DecompressInto, RicherConfigsStillCollapse) {
  // Mask + periodic template + classification: the template expansion and
  // multi-tree decode all draw on context scratch. Decoding is far cheaper
  // than encoding even cold, so the bar here is a small absolute steady
  // budget (the nested template stream adds its own header round-trip)
  // and a clear improvement over the cold run.
  const auto field = make_field(36, 16, 18, 17);
  const auto stream = ClizCompressor(make_config(true, true, 12))
                          .compress(field.data, 1e-3, &field.mask);

  CodecContext ctx;
  NdArray<float> out(field.data.shape());
  const std::size_t cold0 = g_alloc_count.load(std::memory_order_relaxed);
  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t cold_count =
      g_alloc_count.load(std::memory_order_relaxed) - cold0;

  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t count0 = g_alloc_count.load(std::memory_order_relaxed);
  ClizCompressor::decompress_into(stream, ctx, out);
  const std::size_t steady_count =
      g_alloc_count.load(std::memory_order_relaxed) - count0;

  EXPECT_LE(steady_count, 24u);
  EXPECT_LT(steady_count * 3, cold_count)
      << "steady=" << steady_count << " cold=" << cold_count;
}

TEST(DecompressInto, ChunkedSteadyStateBoundedPerChunk) {
  const auto field = make_field(32, 16, 18, 23);
  const double eb = 1e-3;
  const PipelineConfig config = make_config(true, false, 0);
  constexpr std::size_t kChunks = 4;
  ChunkedOptions opts;
  opts.chunks = kChunks;
  ChunkedScratch scratch;
  opts.scratch = &scratch;

  // Compression side: one reused scratch, frame assembled into a reused
  // buffer. Steady state must stay within the 10-allocation budget per
  // chunk (each chunk's Shape round-trip plus incidentals).
  std::vector<std::uint8_t> stream;
  chunked_compress_into(field.data, eb, config, nullptr, opts, stream);
  chunked_compress_into(field.data, eb, config, nullptr, opts, stream);
  const std::size_t c0 = g_alloc_count.load(std::memory_order_relaxed);
  chunked_compress_into(field.data, eb, config, nullptr, opts, stream);
  const std::size_t compress_steady =
      g_alloc_count.load(std::memory_order_relaxed) - c0;
  EXPECT_LE(compress_steady, 10u * kChunks)
      << "chunked compress steady allocations";

  // Decompression side: same budget through the same pool, the returned
  // array's own allocation included.
  (void)chunked_decompress(stream, &scratch);
  (void)chunked_decompress(stream, &scratch);
  const std::size_t d0 = g_alloc_count.load(std::memory_order_relaxed);
  const auto out = chunked_decompress(stream, &scratch);
  const std::size_t decompress_steady =
      g_alloc_count.load(std::memory_order_relaxed) - d0;
  EXPECT_LE(decompress_steady, 10u * kChunks)
      << "chunked decompress steady allocations";

  // Sanity: the steady-state frames are still correct.
  EXPECT_LE(error_stats(field.data.flat(), out.flat()).max_abs_error, eb);
}

}  // namespace
}  // namespace cliz
