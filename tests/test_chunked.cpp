#include "src/core/chunked.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

template <typename T>
NdArray<T> smooth_array_t(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<T> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.09 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<T>(v + 0.01 * rng.normal());
  }
  return a;
}

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed) {
  return smooth_array_t<float>(dims, seed);
}

class ChunkCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChunkCountSweep, RoundTripWithinBound) {
  const auto data = smooth_array({30, 16, 18}, 3);
  ChunkedOptions opts;
  opts.chunks = GetParam();
  const auto stream = chunked_compress(data, 1e-3,
                                       PipelineConfig::defaults(3), nullptr,
                                       opts);
  const auto recon = chunked_decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Counts, ChunkCountSweep,
                         ::testing::Values(1, 2, 3, 7, 16, 30,
                                           100 /* > extent: clamped */));

// --- shape / chunk-count / sample-type sweep ----------------------------

struct SweepCase {
  DimVec dims;
  std::size_t chunks;
  bool f64;
};

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name;
  for (const std::size_t d : info.param.dims) {
    name += std::to_string(d) + "x";
  }
  name.back() = '_';
  name += std::to_string(info.param.chunks) + "chunks_";
  name += info.param.f64 ? "f64" : "f32";
  return name;
}

/// Every public chunked entry point on one input: compress, decompress,
/// decompress_into, and a reused scratch — with byte-identity between the
/// scratch-free and scratch-reusing paths.
template <typename T>
void sweep_round_trip(const DimVec& dims, std::size_t chunks) {
  const auto data = smooth_array_t<T>(dims, 8 + dims.size());
  const double eb = 1e-3;
  const auto config = PipelineConfig::defaults(dims.size());

  ChunkedOptions opts;
  opts.chunks = chunks;
  const auto stream = chunked_compress(data, eb, config, nullptr, opts);

  ChunkedScratch scratch;
  ChunkedOptions pooled = opts;
  pooled.scratch = &scratch;
  std::vector<std::uint8_t> pooled_stream;
  for (int round = 0; round < 2; ++round) {
    chunked_compress_into(data, eb, config, nullptr, pooled, pooled_stream);
    ASSERT_EQ(pooled_stream, stream) << "round " << round;
  }

  const auto recon = chunked_decompress<T>(stream, &scratch);
  ASSERT_EQ(recon.shape(), data.shape());
  double max_err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    max_err = std::max(max_err, std::abs(static_cast<double>(data[i]) -
                                         static_cast<double>(recon[i])));
  }
  EXPECT_LE(max_err, eb);

  NdArray<T> out(data.shape());
  chunked_decompress_into(stream, out, &scratch);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], recon[i]) << "into/returning divergence at " << i;
  }
}

class ChunkedSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ChunkedSweep, RoundTripAllPaths) {
  const SweepCase& c = GetParam();
  if (c.f64) {
    sweep_round_trip<double>(c.dims, c.chunks);
  } else {
    sweep_round_trip<float>(c.dims, c.chunks);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTypes, ChunkedSweep,
    ::testing::Values(
        // 1-D: even and odd splits, both sample types.
        SweepCase{{64}, 1, false}, SweepCase{{64}, 5, false},
        SweepCase{{63}, 4, true},
        // 2-D: odd remainders (41 rows / 7 chunks leaves ragged slabs).
        SweepCase{{40, 12}, 3, false}, SweepCase{{41, 11}, 7, true},
        // 3-D: even split, ragged split, and per-row chunks.
        SweepCase{{24, 10, 8}, 4, false}, SweepCase{{25, 9, 7}, 6, true},
        SweepCase{{13, 6, 5}, 13, false},
        // 4-D ragged.
        SweepCase{{10, 5, 4, 3}, 3, false}),
    sweep_name);

TEST(Chunked, DefaultChunkCountWorks) {
  const auto data = smooth_array({24, 12, 12}, 4);
  const auto stream =
      chunked_compress(data, 1e-3, PipelineConfig::defaults(3));
  const auto recon = chunked_decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

TEST(Chunked, MaskedPeriodicFieldRoundTrip) {
  const auto field = make_ssh(0.1, 900);
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  ChunkedOptions opts;
  opts.chunks = 3;
  const double eb = 1e-3;
  const auto stream =
      chunked_compress(field.data, eb, config, field.mask_ptr(), opts);
  const auto recon = chunked_decompress(stream);
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, eb);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (!field.mask->valid(i)) {
      ASSERT_EQ(recon[i], 9.96921e36f);
    }
  }
}

TEST(Chunked, PeriodicityDisabledInShortChunks) {
  // 48 time steps in 12 chunks -> 4 steps per chunk < 2*12: the per-chunk
  // codec must silently drop periodic extraction yet stay bounded.
  const auto field = make_ssh(0.1, 901);
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  ChunkedOptions opts;
  opts.chunks = 12;
  const auto stream =
      chunked_compress(field.data, 1e-3, config, field.mask_ptr(), opts);
  const auto recon = chunked_decompress(stream);
  EXPECT_LE(
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr())
          .max_abs_error,
      1e-3);
}

TEST(Chunked, TwoPeriodRuleReadsTheTimeDimOfEveryLayout) {
  // Time is dim 1 here, so slabs keep its whole 10-step extent: between one
  // and two periods of 6. Slabs drop the period exactly as tiles of the
  // same extent do, and the frame equals the period-free one.
  const auto data = smooth_array({12, 10, 8}, 7);
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 6;
  config.time_dim = 1;
  PipelineConfig plain = config;
  plain.period = 0;
  EXPECT_TRUE(detail::drops_period(config, DimVec{6, 10, 8}));
  EXPECT_FALSE(detail::drops_period(config, DimVec{6, 12, 8}));
  EXPECT_FALSE(detail::drops_period(plain, DimVec{6, 10, 8}));

  // The whole-array codec would still extract the period (6 < 10), so the
  // equality below is the chunked layer's rule, not the codec's.
  EXPECT_NE(ClizCompressor(config).compress(data, 1e-3),
            ClizCompressor(plain).compress(data, 1e-3));

  ChunkedOptions slabs;
  slabs.chunks = 2;
  const auto slab_frame = chunked_compress(data, 1e-3, config, nullptr, slabs);
  EXPECT_EQ(slab_frame, chunked_compress(data, 1e-3, plain, nullptr, slabs));

  ChunkedOptions tiles;
  tiles.tile = {6, 0, 0};  // the same two boxes as the slabs
  const auto tile_frame = chunked_compress(data, 1e-3, config, nullptr, tiles);
  EXPECT_EQ(tile_frame, chunked_compress(data, 1e-3, plain, nullptr, tiles));
  const auto from_slabs = chunked_decompress(slab_frame);
  const auto from_tiles = chunked_decompress(tile_frame);
  EXPECT_TRUE(std::ranges::equal(from_slabs.flat(), from_tiles.flat()));
}

TEST(Chunked, EquivalentQualityToMonolithic) {
  const auto data = smooth_array({32, 14, 14}, 5);
  ChunkedOptions opts;
  opts.chunks = 4;
  const auto chunked = chunked_compress(data, 1e-3,
                                        PipelineConfig::defaults(3), nullptr,
                                        opts);
  const auto mono =
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3);
  // Chunking costs some ratio (4 headers, shorter prediction context) but
  // must stay in the same ballpark.
  EXPECT_LT(chunked.size(), mono.size() * 2);
}

TEST(Chunked, CorruptStreamsThrow) {
  const auto data = smooth_array({16, 8, 8}, 6);
  auto stream =
      chunked_compress(data, 1e-3, PipelineConfig::defaults(3));
  auto truncated = stream;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)chunked_decompress(truncated), Error);
  EXPECT_THROW((void)chunked_decompress({}), Error);
  auto mutated = stream;
  mutated[1] ^= 0xFF;  // header magic
  EXPECT_THROW((void)chunked_decompress(mutated), Error);
}

TEST(Chunked, MismatchedMaskShapeThrows) {
  const auto data = smooth_array({8, 8}, 7);
  const auto mask = MaskMap::all_valid(Shape({8, 9}));
  EXPECT_THROW((void)chunked_compress(data, 1e-3,
                                      PipelineConfig::defaults(2), &mask),
               Error);
}

}  // namespace
}  // namespace cliz
