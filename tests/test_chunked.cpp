#include "src/core/chunked.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <string>
#include <optional>
#include <utility>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/cpu_features.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked_reader.hpp"
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

/// Every public chunked entry point on one input: compress, compress_into
/// and decompress, with and without a reused scratch — with byte-identity
/// between the scratch-free and scratch-reusing paths.
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

  const auto fresh = chunked_decompress<T>(stream);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh[i], recon[i]) << "scratch/fresh divergence at " << i;
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

TEST(Chunked, StatsReportWhatTheBoxesRan) {
  // Slab and tiled frames report the backends and SIMD tier their boxes
  // ran, and the boxes' summed counts: one code per valid point.
  const auto field = make_ssh(0.1, 900);
  for (const bool tiled : {false, true}) {
    SCOPED_TRACE(tiled ? "tiled" : "slabs");
    ChunkedScratch scratch;
    ChunkedOptions opts;
    if (tiled) {
      opts.tile = {8, 16, 16};
    } else {
      opts.chunks = 4;
    }
    opts.codec.entropy = EntropyBackend::kTans;
    opts.scratch = &scratch;
    (void)chunked_compress(field.data, 1e-3, PipelineConfig::defaults(3),
                           field.mask_ptr(), opts);
    const StageStats& st = scratch.stats;
    EXPECT_EQ(st.predictor_backend,
              static_cast<std::uint8_t>(PredictorBackend::kInterp));
    EXPECT_EQ(st.entropy_backend,
              static_cast<std::uint8_t>(EntropyBackend::kTans));
    EXPECT_FALSE(st.entropy_downgraded);
    EXPECT_EQ(st.simd_tier, static_cast<std::uint8_t>(active_simd_tier()));
    EXPECT_EQ(st.code_count, field.mask->count_valid());
    EXPECT_NE(st.to_text().find("entropy=tans simd=" +
                                std::string(simd_tier_name(
                                    active_simd_tier()))),
              std::string::npos)
        << st.to_text();
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

// --- CLK2 slab frames assembled slab by slab ------------------------------
//
// The format records each slab's dim-0 range, so decoders must not assume
// the balanced split chunked_compress happens to write. These frames are
// built the way any slab writer would: each range compressed as an
// independent CliZ stream, then framed by detail::write_slab_frame.

using Ranges = std::vector<std::pair<std::size_t, std::size_t>>;

/// Dim-0 ranges of `per_block` steps each over `n` steps, the last short.
Ranges blocks_of(std::size_t n, std::size_t per_block) {
  Ranges ranges;
  for (std::size_t lo = 0; lo < n; lo += per_block) {
    ranges.emplace_back(lo, std::min(n, lo + per_block));
  }
  return ranges;
}

/// The CliZ stream of each range of `data`, compressed with `config` and,
/// when `mask` is given, the slab's crop of it.
template <typename T>
std::vector<std::vector<std::uint8_t>> slab_streams(
    const NdArray<T>& data, double eb, const Ranges& ranges,
    const PipelineConfig& config, const MaskMap* mask = nullptr) {
  const Shape& shape = data.shape();
  const std::size_t row = shape.size() / shape.dim(0);
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& [lo, hi] : ranges) {
    DimVec dims = shape.dims();
    dims[0] = hi - lo;
    NdArray<T> slab{Shape(dims)};
    std::copy_n(data.data() + lo * row, slab.size(), slab.data());
    std::optional<MaskMap> slab_mask;
    if (mask != nullptr) {
      DimVec start(dims.size(), 0);
      start[0] = lo;
      slab_mask = mask->crop(start, Shape(dims));
    }
    streams.push_back(ClizCompressor(config).compress(
        slab, eb, slab_mask ? &*slab_mask : nullptr));
  }
  return streams;
}

template <typename T>
std::vector<std::uint8_t> slab_frame(const NdArray<T>& data, double eb,
                                     const Ranges& ranges,
                                     const PipelineConfig& config,
                                     const MaskMap* mask = nullptr) {
  std::vector<std::uint8_t> frame;
  detail::write_slab_frame(data.shape(), ranges,
                           slab_streams(data, eb, ranges, config, mask),
                           frame);
  return frame;
}

/// A 12 + 12 + 5 step frame.
std::vector<std::uint8_t> uneven_slab_frame(const NdArray<float>& data,
                                            double eb) {
  return slab_frame(data, eb, blocks_of(data.shape().dim(0), 12),
                    PipelineConfig::defaults(data.shape().ndims()));
}

TEST(Chunked, UnevenSlabFrameDecodesThroughEveryPath) {
  const auto data = smooth_array({29, 14, 18}, 11);
  const double eb = 1e-3;
  const auto frame = uneven_slab_frame(data, eb);
  ASSERT_TRUE(is_chunked_stream(frame));

  const auto recon = chunked_decompress(frame);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);

  // One tile per slab, carrying the recorded ranges.
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), 3u);
  EXPECT_EQ(reader.tiles()[1].origin[0], 12u);
  EXPECT_EQ(reader.tiles()[2].origin[0], 24u);
  EXPECT_EQ(reader.tiles()[2].extent[0], 5u);

  // A window over the later half of the time axis straddles the short
  // last slab and equals the same crop of the full decode.
  const DimVec origin{14, 3, 4};
  const DimVec extent{15, 8, 10};
  std::vector<float> window(extent[0] * extent[1] * extent[2]);
  (void)reader.decompress_region(origin, extent, std::span<float>(window));
  std::size_t w = 0;
  for (std::size_t t = origin[0]; t < origin[0] + extent[0]; ++t) {
    for (std::size_t y = origin[1]; y < origin[1] + extent[1]; ++y) {
      for (std::size_t x = origin[2]; x < origin[2] + extent[2]; ++x) {
        ASSERT_EQ(window[w++], recon[(t * 14 + y) * 18 + x])
            << "t=" << t << " y=" << y << " x=" << x;
      }
    }
  }

  // Truncation is refused, and so is a flipped bit past the magic: the
  // CLK2 header is CRC-covered.
  auto truncated = frame;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)chunked_decompress(truncated), Error);
  auto flipped = frame;
  flipped[5] ^= 0x01;
  EXPECT_THROW((void)chunked_decompress(flipped), Error);
}

/// One slab sweep case: `n` steps of a 14 x 18 field in blocks of
/// `per_block` steps.
struct SlabCase {
  std::size_t n;
  std::size_t per_block;
  bool f64;
};

std::string slab_name(const ::testing::TestParamInfo<SlabCase>& info) {
  return std::to_string(info.param.n) + "steps_per" +
         std::to_string(info.param.per_block) +
         (info.param.f64 ? "_f64" : "_f32");
}

/// Full decode within the bound, one reader tile per slab carrying its
/// recorded range, and a window over the later half of the time axis equal
/// to the same crop of the full decode.
template <typename T>
void slab_round_trip(std::size_t n, std::size_t per_block) {
  const auto data = smooth_array_t<T>({n, 14, 18}, 20 + n);
  const double eb = 1e-3;
  const auto ranges = blocks_of(n, per_block);
  const auto frame =
      slab_frame(data, eb, ranges, PipelineConfig::defaults(3));
  ASSERT_TRUE(is_chunked_stream(frame));

  const auto recon = chunked_decompress<T>(frame);
  ASSERT_EQ(recon.shape(), data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::abs(static_cast<double>(data[i]) -
                       static_cast<double>(recon[i])),
              eb)
        << "i=" << i;
  }

  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.tiles().size(), ranges.size());
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    EXPECT_EQ(reader.tiles()[c].origin[0], ranges[c].first) << "slab " << c;
    EXPECT_EQ(reader.tiles()[c].extent[0], ranges[c].second - ranges[c].first)
        << "slab " << c;
  }
  const DimVec origin{n / 2, 3, 4};
  const DimVec extent{n - n / 2, 8, 10};
  std::vector<T> window(extent[0] * extent[1] * extent[2]);
  (void)reader.decompress_region(origin, extent, std::span<T>(window));
  std::size_t w = 0;
  for (std::size_t t = origin[0]; t < n; ++t) {
    for (std::size_t y = origin[1]; y < origin[1] + extent[1]; ++y) {
      for (std::size_t x = origin[2]; x < origin[2] + extent[2]; ++x) {
        ASSERT_EQ(window[w++], recon[(t * 14 + y) * 18 + x])
            << "window t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
}

class SlabFrameSweep : public ::testing::TestWithParam<SlabCase> {};

TEST_P(SlabFrameSweep, RoundTripWithinBound) {
  const SlabCase& c = GetParam();
  if (c.f64) {
    slab_round_trip<double>(c.n, c.per_block);
  } else {
    slab_round_trip<float>(c.n, c.per_block);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, SlabFrameSweep,
    ::testing::Values(
        // One slab: a single step, a partial block, an exact block.
        SlabCase{1, 12, false}, SlabCase{5, 12, false},
        SlabCase{12, 12, false}, SlabCase{24, 24, false},
        // A one-step last slab after full blocks.
        SlabCase{13, 12, false}, SlabCase{9, 4, false},
        // Many slabs, exact and ragged.
        SlabCase{36, 12, false}, SlabCase{37, 5, false},
        SlabCase{13, 12, true}, SlabCase{9, 4, true},
        SlabCase{37, 5, true}),
    slab_name);

TEST(Chunked, MaskedSlabFrameRoundTrip) {
  // A persistent spatial mask over 14 steps in 6 + 6 + 2 step slabs: each
  // slab carries its crop of the broadcast mask.
  const Shape shape({14, 10, 12});
  auto spatial = MaskMap::all_valid(Shape({10, 12}));
  for (std::size_t i = 0; i < spatial.size(); i += 3) {
    spatial.mutable_data()[i] = 0;
  }
  const auto mask = MaskMap::broadcast(spatial, shape);
  auto data = smooth_array({14, 10, 12}, 12);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask.valid(i)) data[i] = 9.96921e36f;
  }
  const double eb = 1e-3;
  const auto frame = slab_frame(data, eb, blocks_of(14, 6),
                                PipelineConfig::defaults(3), &mask);

  const auto recon = chunked_decompress(frame);
  ASSERT_EQ(recon.shape(), shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask.valid(i)) {
      ASSERT_LE(std::abs(static_cast<double>(recon[i]) -
                         static_cast<double>(data[i])),
                eb)
          << "i=" << i;
    } else {
      ASSERT_EQ(recon[i], 9.96921e36f) << "i=" << i;
    }
  }

  // A window across all three slabs keeps the fill values too.
  const ChunkedReader reader(frame);
  const DimVec origin{4, 2, 1};
  const DimVec extent{10, 6, 9};
  std::vector<float> window(extent[0] * extent[1] * extent[2]);
  (void)reader.decompress_region(origin, extent, std::span<float>(window));
  std::size_t w = 0;
  for (std::size_t t = origin[0]; t < origin[0] + extent[0]; ++t) {
    for (std::size_t y = origin[1]; y < origin[1] + extent[1]; ++y) {
      for (std::size_t x = origin[2]; x < origin[2] + extent[2]; ++x) {
        ASSERT_EQ(window[w++], recon[(t * 10 + y) * 12 + x])
            << "t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
}

TEST(Chunked, PeriodicSlabFramePerYearBlock) {
  // 48 monthly steps in 24-step slabs: each slab spans two periods, so
  // every slab stream extracts the annual cycle.
  NdArray<float> data(Shape({48, 12, 12}));
  Rng rng(13);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = data.shape().coords(i);
    const double season =
        std::cos(2.0 * std::numbers::pi * static_cast<double>(c[0]) / 12.0);
    data[i] = static_cast<float>(
        std::sin(0.2 * static_cast<double>(c[1])) +
        0.5 * season * std::cos(0.1 * static_cast<double>(c[2])) +
        0.005 * rng.normal());
  }
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  config.time_dim = 0;
  PipelineConfig plain = config;
  plain.period = 0;
  EXPECT_FALSE(detail::drops_period(config, DimVec{24, 12, 12}));

  const double eb = 1e-3;
  const auto ranges = blocks_of(48, 24);
  const auto frame = slab_frame(data, eb, ranges, config);
  EXPECT_NE(frame, slab_frame(data, eb, ranges, plain));

  const auto recon = chunked_decompress(frame);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

// --- hostile CLK2 slab frames with a valid header CRC ---------------------
//
// write_slab_frame seals whatever ranges it is given, so these frames pass
// the header CRC and the structural checks are what must refuse them.

ErrorCode slab_decode_error(const std::vector<std::uint8_t>& frame) {
  try {
    (void)chunked_decompress(frame);
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "hostile slab frame decoded";
  return ErrorCode::kBadArgument;
}

class SlabFrameFault : public ::testing::Test {
 protected:
  const NdArray<float> data_ = smooth_array({29, 14, 18}, 14);
  const Ranges ranges_ = blocks_of(29, 12);  // 12 + 12 + 5
  const std::vector<std::vector<std::uint8_t>> streams_ =
      slab_streams(data_, 1e-3, ranges_, PipelineConfig::defaults(3));

  std::vector<std::uint8_t> frame(
      const Ranges& ranges,
      const std::vector<std::vector<std::uint8_t>>& streams) const {
    std::vector<std::uint8_t> out;
    detail::write_slab_frame(data_.shape(), ranges, streams, out);
    return out;
  }
};

TEST_F(SlabFrameFault, GapBetweenSlabsIsCorrupt) {
  const auto f = frame({{0, 12}, {13, 24}, {24, 29}}, streams_);
  EXPECT_EQ(slab_decode_error(f), ErrorCode::kCorruptStream);
  EXPECT_THROW((void)ChunkedReader(f), Error);
}

TEST_F(SlabFrameFault, OverlappingSlabsAreCorrupt) {
  const auto f = frame({{0, 12}, {10, 24}, {24, 29}}, streams_);
  EXPECT_EQ(slab_decode_error(f), ErrorCode::kCorruptStream);
  EXPECT_THROW((void)ChunkedReader(f), Error);
}

TEST_F(SlabFrameFault, SlabsShortOfDim0AreCorrupt) {
  const auto f = frame({{0, 12}, {12, 24}}, {streams_[0], streams_[1]});
  EXPECT_EQ(slab_decode_error(f), ErrorCode::kCorruptStream);
  EXPECT_THROW((void)ChunkedReader(f), Error);
}

TEST_F(SlabFrameFault, SlabStreamDisagreeingWithItsRangeIsCorrupt) {
  // The last range records 5 steps; its payload carries a 12-step slab.
  const auto f = frame(ranges_, {streams_[0], streams_[1], streams_[1]});
  EXPECT_EQ(slab_decode_error(f), ErrorCode::kCorruptStream);

  // The index itself is sound: a window inside the intact first slab
  // still decodes, one touching the last slab is refused.
  const ChunkedReader reader(f);
  const DimVec origin{0, 0, 0};
  const DimVec extent{12, 14, 18};
  std::vector<float> window(12 * 14 * 18);
  (void)reader.decompress_region(origin, extent, std::span<float>(window));
  EXPECT_LE(error_stats(std::span<const float>(data_.data(), window.size()),
                        std::span<const float>(window))
                .max_abs_error,
            1e-3);
  const DimVec late{20, 0, 0};
  const DimVec late_extent{9, 14, 18};
  std::vector<float> late_window(9 * 14 * 18);
  EXPECT_THROW((void)reader.decompress_region(late, late_extent,
                                              std::span<float>(late_window)),
               Error);
}

TEST_F(SlabFrameFault, FlippedPayloadByteFailsItsSlabCrc) {
  // The header stays intact, so the reader opens; only the damaged last
  // slab is refused.
  auto f = frame(ranges_, streams_);
  f.back() ^= 0x01;
  EXPECT_EQ(slab_decode_error(f), ErrorCode::kCorruptStream);

  const ChunkedReader reader(f);
  const DimVec origin{0, 0, 0};
  const DimVec extent{24, 14, 18};
  std::vector<float> window(24 * 14 * 18);
  EXPECT_NO_THROW((void)reader.decompress_region(origin, extent,
                                                 std::span<float>(window)));
  const DimVec late{24, 0, 0};
  const DimVec late_extent{5, 14, 18};
  std::vector<float> late_window(5 * 14 * 18);
  try {
    (void)reader.decompress_region(late, late_extent,
                                   std::span<float>(late_window));
    ADD_FAILURE() << "damaged slab decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStream);
  }
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
