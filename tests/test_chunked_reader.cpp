// ChunkedReader tests: the random-access decode contract. The property
// suite proves decompress_region is bit-identical to the matching window of
// a full decode across randomized shapes, tilings, regions and the whole
// predictor x entropy x lossless backend grid; the fault suite re-seals
// hostile CLK3 indexes (mutate records, recompute the header CRC) and
// checks they classify as CorruptStream/LimitExceeded before any
// payload-proportional work.
#include "src/core/chunked_reader.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/tile_cache.hpp"

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

template <typename T>
std::vector<std::uint8_t> tiled_frame(const NdArray<T>& data,
                                      const DimVec& tile,
                                      const ClizOptions& codec = {}) {
  ChunkedOptions opts;
  opts.tile = tile;
  opts.codec = codec;
  return chunked_compress(data, 1e-3,
                          PipelineConfig::defaults(data.shape().ndims()),
                          nullptr, opts);
}

/// Asserts `win` (row-major over `ext`) is bit-identical to the window
/// [lo, lo+ext) of `full`.
template <typename T>
void expect_window_equal(const NdArray<T>& full,
                         std::span<const std::size_t> lo,
                         std::span<const std::size_t> ext,
                         std::span<const T> win) {
  const Shape wshape{DimVec(ext.begin(), ext.end())};
  ASSERT_EQ(win.size(), wshape.size());
  for (std::size_t i = 0; i < wshape.size(); ++i) {
    DimVec g = wshape.coords(i);
    for (std::size_t d = 0; d < g.size(); ++d) g[d] += lo[d];
    const T expected = full[full.shape().offset(g)];
    // Bit-identical, not approximately equal: the region path decodes the
    // very same tile streams the full decode does.
    ASSERT_EQ(std::memcmp(&win[i], &expected, sizeof(T)), 0)
        << "window mismatch at linear " << i;
  }
}

/// Draws a random non-empty in-bounds window of `dims`.
void random_window(Rng& rng, const DimVec& dims, DimVec& lo, DimVec& ext) {
  lo.resize(dims.size());
  ext.resize(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    lo[d] = rng.uniform_index(dims[d]);
    ext[d] = 1 + rng.uniform_index(dims[d] - lo[d]);
  }
}

template <typename T>
void check_region_equivalence(std::span<const std::uint8_t> frame,
                              std::uint64_t seed, int n_regions) {
  const NdArray<T> full = chunked_decompress<T>(frame);
  const ChunkedReader reader(frame);
  ASSERT_EQ(reader.shape(), full.shape());
  Rng rng(seed);
  DimVec lo, ext;
  for (int r = 0; r < n_regions; ++r) {
    random_window(rng, full.shape().dims(), lo, ext);
    std::vector<T> win(Shape(DimVec(ext)).size());
    const RegionStats rs =
        reader.decompress_region(lo, ext, std::span<T>(win));
    expect_window_equal<T>(full, lo, ext, win);
    EXPECT_EQ(rs.tiles_decoded, rs.tiles_intersecting);
    EXPECT_LE(rs.compressed_bytes_touched, rs.frame_compressed_bytes);
  }
}

// --- round trip & addressing -------------------------------------------

TEST(ChunkedReaderTile, TiledFrameExposesGridAndRoundTrips) {
  const auto data = smooth_array_t<float>({24, 20, 16}, 31);
  const auto frame = tiled_frame(data, {8, 10, 8});
  const ChunkedReader reader(frame);
  EXPECT_EQ(reader.shape(), data.shape());
  EXPECT_EQ(reader.tiles().size(), 3u * 2u * 2u);
  EXPECT_EQ(reader.sample_bytes(), 4u);
  for (const TileRecord& t : reader.tiles()) {
    EXPECT_GE(t.n_bytes, 1u);
    EXPECT_EQ(crc32c(std::span<const std::uint8_t>(frame).subspan(
                  static_cast<std::size_t>(t.offset),
                  static_cast<std::size_t>(t.n_bytes))),
              t.crc);
  }
  // Full-window region read == full decode, bit for bit.
  const auto full = chunked_decompress(frame);
  const DimVec lo(3, 0);
  std::vector<float> out(data.size());
  const RegionStats rs = reader.decompress_region(
      lo, data.shape().dims(), std::span<float>(out));
  EXPECT_EQ(rs.tiles_total, 12u);
  EXPECT_EQ(rs.tiles_intersecting, 12u);
  expect_window_equal<float>(full, lo, data.shape().dims(),
                             std::span<const float>(out));
}

TEST(ChunkedReaderTile, WindowTouchesOnlyIntersectingTiles) {
  const auto data = smooth_array_t<float>({24, 20, 16}, 32);
  const auto frame = tiled_frame(data, {8, 10, 8});
  const ChunkedReader reader(frame);
  // A window inside one tile decodes exactly that tile.
  const DimVec lo{9, 2, 1};
  const DimVec ext{4, 5, 6};
  std::vector<float> out(Shape(DimVec(ext)).size());
  const RegionStats rs = reader.decompress_region(lo, ext,
                                                  std::span<float>(out));
  EXPECT_EQ(rs.tiles_intersecting, 1u);
  EXPECT_EQ(rs.tiles_decoded, 1u);
  EXPECT_LT(rs.compressed_bytes_touched, rs.frame_compressed_bytes);
  expect_window_equal<float>(chunked_decompress(frame), lo, ext,
                             std::span<const float>(out));
}

TEST(ChunkedReaderTile, ZeroTileEntryMeansFullExtent) {
  const auto data = smooth_array_t<float>({12, 10, 8}, 33);
  // tile = {4, 0, 0}: slab-like tiles, but in the v3 indexed layout.
  const auto frame = tiled_frame(data, {4, 0, 0});
  const ChunkedReader reader(frame);
  EXPECT_EQ(reader.tiles().size(), 3u);
  check_region_equivalence<float>(frame, 331, 4);
}

TEST(ChunkedReaderTile, Float64Regions) {
  const auto data = smooth_array_t<double>({16, 12, 10}, 34);
  const auto frame = tiled_frame(data, {6, 5, 5});
  const ChunkedReader reader(frame);
  EXPECT_EQ(reader.sample_bytes(), 8u);
  check_region_equivalence<double>(frame, 341, 4);
}

TEST(ChunkedReaderTile, MaskedFieldRegionsPreserveFillValues) {
  const auto field = make_ssh(0.1, 902);
  ChunkedOptions opts;
  opts.tile = {20, 24, 20};
  const auto frame = chunked_compress(field.data, 1e-3,
                                      PipelineConfig::defaults(3),
                                      field.mask_ptr(), opts);
  check_region_equivalence<float>(frame, 902, 4);
}

// --- CLK2 / slab frames address like tiles ------------------------------

TEST(ChunkedReaderSlab, Clk2FrameRegionsMatchFullDecode) {
  const auto data = smooth_array_t<float>({30, 16, 18}, 35);
  ChunkedOptions opts;
  opts.chunks = 5;
  const auto frame = chunked_compress(data, 1e-3, PipelineConfig::defaults(3),
                                      nullptr, opts);
  const ChunkedReader reader(frame);
  EXPECT_EQ(reader.tiles().size(), 5u);
  // Slab records must carry recovered byte offsets usable for seeks.
  for (std::size_t i = 1; i < reader.tiles().size(); ++i) {
    EXPECT_GT(reader.tiles()[i].offset, reader.tiles()[i - 1].offset);
  }
  check_region_equivalence<float>(frame, 351, 5);
}

// --- property sweep: shapes x tilings x backends ------------------------

struct GridCase {
  DimVec dims;
  DimVec tile;
};

class ChunkedReaderProperty : public ::testing::TestWithParam<GridCase> {};

TEST_P(ChunkedReaderProperty, RegionMatchesFullDecodeWindow) {
  const auto& p = GetParam();
  const auto data = smooth_array_t<float>(p.dims, 7 + p.dims.size());
  check_region_equivalence<float>(tiled_frame(data, p.tile),
                                  p.dims.size() * 131, 5);
}

std::string grid_name(const ::testing::TestParamInfo<GridCase>& info) {
  std::string s = "d";
  for (const auto d : info.param.dims) {
    s += '_';
    s += std::to_string(d);
  }
  s += "_t";
  for (const auto t : info.param.tile) {
    s += '_';
    s += std::to_string(t);
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTilings, ChunkedReaderProperty,
    ::testing::Values(GridCase{{64}, {10}},            // 1-D, ragged tail
                      GridCase{{40, 12}, {16, 5}},     // 2-D, both ragged
                      GridCase{{30, 16, 18}, {8, 5, 6}},
                      GridCase{{30, 16, 18}, {30, 16, 18}},  // single tile
                      GridCase{{12, 10, 6, 4}, {5, 4, 3, 2}}),
    grid_name);

TEST(ChunkedReaderProperty, AllBackendCombinationsServeRegions) {
  const DimVec dims{18, 12, 10};
  const auto data = smooth_array_t<float>(dims, 55);
  for (const auto predictor :
       {PredictorBackend::kInterp, PredictorBackend::kLorenzo1,
        PredictorBackend::kRegression}) {
    for (const auto entropy :
         {EntropyBackend::kHuffman, EntropyBackend::kTans}) {
      ClizOptions codec;
      codec.predictor = predictor;
      codec.entropy = entropy;
      SCOPED_TRACE(::testing::Message()
                   << "predictor=" << static_cast<int>(predictor)
                   << " entropy=" << static_cast<int>(entropy));
      check_region_equivalence<float>(
          tiled_frame(data, {7, 5, 6}, codec),
          101 + static_cast<std::uint64_t>(predictor) * 4 +
              static_cast<std::uint64_t>(entropy) * 2,
          2);
    }
  }
}

// --- caller-misuse checks ----------------------------------------------

TEST(ChunkedReaderTile, BadArgumentsAreRejected) {
  const auto data = smooth_array_t<float>({12, 10}, 36);
  const auto frame = tiled_frame(data, {6, 5});
  const ChunkedReader reader(frame);
  const auto code_of = [&](const DimVec& lo, const DimVec& ext,
                           std::size_t out_elems) {
    std::vector<float> buf(out_elems);
    try {
      (void)reader.decompress_region(lo, ext, std::span<float>(buf));
      return static_cast<int>(-1);
    } catch (const Error& e) {
      return static_cast<int>(e.code());
    }
  };
  // Arity mismatch.
  EXPECT_EQ(code_of({0}, {4}, 4),
            static_cast<int>(ErrorCode::kBadArgument));
  // Region out of bounds.
  EXPECT_EQ(code_of({10, 0}, {4, 4}, 16),
            static_cast<int>(ErrorCode::kBadArgument));
  // Zero-extent window.
  EXPECT_EQ(code_of({0, 0}, {0, 4}, 0),
            static_cast<int>(ErrorCode::kBadArgument));
  // Output span does not match the window.
  EXPECT_EQ(code_of({0, 0}, {4, 4}, 15),
            static_cast<int>(ErrorCode::kBadArgument));
}

// --- file-backed mode ---------------------------------------------------

TEST(ChunkedReaderFile, FetchModeMatchesInMemoryAndRetriesShortPrefix) {
  const auto data = smooth_array_t<float>({24, 20, 16}, 37);
  const auto frame = tiled_frame(data, {8, 10, 8});

  std::uint64_t fetched_bytes = 0;
  const ChunkedReader::Fetch fetch = [&](std::uint64_t off, std::uint64_t n,
                                         std::uint8_t* dst) {
    ASSERT_LE(off + n, frame.size());
    std::memcpy(dst, frame.data() + off, static_cast<std::size_t>(n));
    fetched_bytes += n;
  };

  // A too-short header prefix is the documented kCorruptStream retry
  // contract — grow it until the index parses (the archive reader's loop).
  std::optional<ChunkedReader> reader;
  std::size_t prefix = 16;
  int attempts = 0;
  for (;;) {
    ++attempts;
    try {
      reader.emplace(std::span(frame.data(), prefix), frame.size(), fetch);
      break;
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kCorruptStream);
      ASSERT_LT(prefix, frame.size()) << "never parsed";
      prefix = std::min(frame.size(), prefix * 4);
    }
  }
  EXPECT_GT(attempts, 1);  // 16 bytes cannot hold a 12-tile index

  const DimVec lo{9, 2, 1};
  const DimVec ext{4, 5, 6};
  std::vector<float> out(Shape(DimVec(ext)).size());
  fetched_bytes = 0;
  const RegionStats rs =
      reader->decompress_region(lo, ext, std::span<float>(out));
  EXPECT_EQ(rs.tiles_decoded, 1u);
  // Only the intersecting tile's payload crossed the fetch boundary.
  EXPECT_EQ(fetched_bytes, rs.compressed_bytes_touched);
  EXPECT_LT(fetched_bytes, frame.size());
  expect_window_equal<float>(chunked_decompress(frame), lo, ext,
                             std::span<const float>(out));
}

TEST(ChunkedReaderFile, Clk2FetchModeServesRegions) {
  const auto data = smooth_array_t<float>({30, 16, 18}, 38);
  ChunkedOptions opts;
  opts.chunks = 4;
  const auto frame = chunked_compress(data, 1e-3, PipelineConfig::defaults(3),
                                      nullptr, opts);
  const ChunkedReader::Fetch fetch = [&](std::uint64_t off, std::uint64_t n,
                                         std::uint8_t* dst) {
    ASSERT_LE(off + n, frame.size());
    std::memcpy(dst, frame.data() + off, static_cast<std::size_t>(n));
  };
  std::optional<ChunkedReader> reader;
  std::size_t prefix = 64;
  for (;;) {
    try {
      reader.emplace(std::span(frame.data(), prefix), frame.size(), fetch);
      break;
    } catch (const Error& e) {
      ASSERT_EQ(e.code(), ErrorCode::kCorruptStream);
      ASSERT_LT(prefix, frame.size());
      prefix = std::min(frame.size(), prefix * 4);
    }
  }
  const auto full = chunked_decompress(frame);
  Rng rng(381);
  DimVec lo, ext;
  for (int r = 0; r < 3; ++r) {
    random_window(rng, data.shape().dims(), lo, ext);
    std::vector<float> out(Shape(DimVec(ext)).size());
    (void)reader->decompress_region(lo, ext, std::span<float>(out));
    expect_window_equal<float>(full, lo, ext, std::span<const float>(out));
  }
}

// --- TileCache integration ---------------------------------------------

TEST(ChunkedReaderTileCache, WarmWindowDecodesZeroTiles) {
  const auto data = smooth_array_t<float>({24, 20, 16}, 39);
  const auto frame = tiled_frame(data, {8, 10, 8});
  const ChunkedReader reader(frame);

  TileCache cache;
  ChunkedScratch scratch;
  RegionOptions opts;
  opts.cache = &cache;
  opts.scratch = &scratch;

  const DimVec lo{5, 3, 2};
  const DimVec ext{10, 9, 8};
  std::vector<float> a(Shape(DimVec(ext)).size());
  std::vector<float> b(a.size());

  const RegionStats cold =
      reader.decompress_region(lo, ext, std::span<float>(a), opts);
  EXPECT_GT(cold.tiles_intersecting, 1u);
  EXPECT_EQ(cold.tiles_decoded, cold.tiles_intersecting);
  EXPECT_EQ(cold.tiles_from_cache, 0u);

  const RegionStats warm =
      reader.decompress_region(lo, ext, std::span<float>(b), opts);
  EXPECT_EQ(warm.tiles_decoded, 0u);
  EXPECT_EQ(warm.tiles_from_cache, warm.tiles_intersecting);
  EXPECT_EQ(b, a);

  // Cache telemetry agrees and is mirrored into the scratch's StageStats.
  EXPECT_EQ(cache.stats().hits, warm.tiles_from_cache);
  EXPECT_EQ(cache.stats().misses, cold.tiles_decoded);
  EXPECT_EQ(scratch.stats.tile_cache_hits, warm.tiles_from_cache);
  EXPECT_EQ(scratch.stats.tile_cache_misses, cold.tiles_decoded);
}

TEST(ChunkedReaderTileCache, DistinctFramesDoNotShareEntries) {
  const auto a = smooth_array_t<float>({12, 10}, 40);
  const auto b = smooth_array_t<float>({12, 10}, 41);
  const auto fa = tiled_frame(a, {6, 5});
  const auto fb = tiled_frame(b, {6, 5});
  const ChunkedReader ra(fa);
  const ChunkedReader rb(fb);

  TileCache cache;
  RegionOptions opts;
  opts.cache = &cache;
  const DimVec lo{0, 0};
  const DimVec ext{6, 5};
  std::vector<float> out(Shape(DimVec(ext)).size());
  (void)ra.decompress_region(lo, ext, std::span<float>(out), opts);
  // Same tile index, different frame: must miss, not serve a's samples.
  const RegionStats rs =
      rb.decompress_region(lo, ext, std::span<float>(out), opts);
  EXPECT_EQ(rs.tiles_from_cache, 0u);
  EXPECT_EQ(rs.tiles_decoded, 1u);
  expect_window_equal<float>(chunked_decompress(fb), lo, ext,
                             std::span<const float>(out));
}

// --- hostile tile indexes ----------------------------------------------

/// Parsed CLK3 frame for the fault suite: mutate records, then re-seal
/// (recompute the header CRC) so corruption is structural, not a CRC
/// mismatch — unless the test wants exactly that.
struct Clk3Tile {
  DimVec origin;
  DimVec extent;
  std::uint64_t offset = 0;   ///< relative to the payload base
  std::uint64_t n_bytes = 0;
  std::uint32_t crc = 0;
};

struct Clk3Frame {
  DimVec dims;
  std::vector<Clk3Tile> tiles;
  std::vector<std::uint8_t> payload;
};

Clk3Frame parse_clk3(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  EXPECT_EQ(r.get<std::uint32_t>(), detail::kChunkedMagicV3);
  Clk3Frame f;
  f.dims.resize(r.get_varint());
  for (auto& d : f.dims) d = r.get_varint();
  f.tiles.resize(r.get_varint());
  for (auto& t : f.tiles) {
    t.origin.resize(f.dims.size());
    for (auto& o : t.origin) o = r.get_varint();
    t.extent.resize(f.dims.size());
    for (auto& e : t.extent) e = r.get_varint();
    t.offset = r.get_varint();
    t.n_bytes = r.get_varint();
    t.crc = r.get<std::uint32_t>();
  }
  (void)r.get<std::uint32_t>();  // header CRC, recomputed on rebuild
  f.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(r.pos()),
                   bytes.end());
  return f;
}

struct BuildTweaks {
  std::optional<std::uint64_t> declared_tiles;  ///< lie about the count
  bool corrupt_header_crc = false;
};

std::vector<std::uint8_t> build_clk3(const Clk3Frame& f,
                                     const BuildTweaks& tweaks = {}) {
  ByteWriter w;
  w.put(detail::kChunkedMagicV3);
  w.put_varint(f.dims.size());
  for (const auto d : f.dims) w.put_varint(d);
  w.put_varint(tweaks.declared_tiles.value_or(f.tiles.size()));
  for (const auto& t : f.tiles) {
    for (const auto o : t.origin) w.put_varint(o);
    for (const auto e : t.extent) w.put_varint(e);
    w.put_varint(t.offset);
    w.put_varint(t.n_bytes);
    w.put(t.crc);
  }
  std::uint32_t crc = crc32c(w.bytes().subspan(sizeof(std::uint32_t)));
  if (tweaks.corrupt_header_crc) crc ^= 0x1;
  w.put(crc);
  w.put_bytes(f.payload);
  return std::move(w).take();
}

class ChunkedReaderFault : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto data = smooth_array_t<float>({16, 12, 10}, 50);
    frame_ = tiled_frame(data, {8, 6, 5});  // 2x2x2 = 8 tiles
    parsed_ = parse_clk3(frame_);
    ASSERT_EQ(parsed_.tiles.size(), 8u);
  }

  /// Expects ChunkedReader construction over `bytes` to throw `code`.
  static void expect_reader_error(std::span<const std::uint8_t> bytes,
                                  ErrorCode code,
                                  const ResourceLimits& limits = {}) {
    try {
      const ChunkedReader reader(bytes, limits);
      FAIL() << "hostile index accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code) << e.what();
    }
  }

  std::vector<std::uint8_t> frame_;
  Clk3Frame parsed_;
};

TEST_F(ChunkedReaderFault, ValidFrameRebuildsByteIdentical) {
  // The mutate-and-reseal helper must be faithful, or every fault below
  // would be testing the helper instead of the validator.
  EXPECT_EQ(build_clk3(parsed_), frame_);
}

TEST_F(ChunkedReaderFault, TruncatedIndex) {
  for (const std::size_t keep : {5ul, 9ul, 30ul}) {
    expect_reader_error(std::span(frame_.data(), keep),
                        ErrorCode::kCorruptStream);
  }
}

TEST_F(ChunkedReaderFault, BadHeaderCrc) {
  BuildTweaks tweaks;
  tweaks.corrupt_header_crc = true;
  expect_reader_error(build_clk3(parsed_, tweaks), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, FlippedRecordByteFailsHeaderCrc) {
  auto f = parsed_;
  f.tiles[3].origin[1] += 1;
  // Reserialize WITHOUT resealing: splice the stale CRC back in by
  // rebuilding and restoring the original trailing header CRC bytes is
  // fiddly, so instead flip a byte in the original frame's index region.
  auto bytes = frame_;
  bytes[6] ^= 0x40;  // inside the dims varints
  expect_reader_error(bytes, ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, ExtentOverflowsDeclaredShape) {
  auto f = parsed_;
  f.tiles[0].extent[0] = f.dims[0] + 5;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, OriginPastDeclaredShape) {
  auto f = parsed_;
  f.tiles[7].origin[2] = f.dims[2] + 1;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, OverlappingTiles) {
  auto f = parsed_;
  f.tiles[1].origin = f.tiles[0].origin;
  f.tiles[1].extent = f.tiles[0].extent;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, GapInTileGrid) {
  auto f = parsed_;
  f.tiles[0].extent[2] -= 1;  // leaves an uncovered plane
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, PayloadRangeOutOfBounds) {
  auto f = parsed_;
  f.tiles.back().n_bytes += f.payload.size();
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, PayloadOffsetPastFrame) {
  auto f = parsed_;
  f.tiles[0].offset = f.payload.size() + 100;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, OverlappingPayloadRanges) {
  auto f = parsed_;
  f.tiles[1].offset = f.tiles[0].offset;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, ZeroLengthPayload) {
  auto f = parsed_;
  f.tiles[2].n_bytes = 0;
  expect_reader_error(build_clk3(f), ErrorCode::kCorruptStream);
}

TEST_F(ChunkedReaderFault, DeclaredExtentBombIsLimitExceeded) {
  // Product of dims past ResourceLimits::max_extents must refuse before
  // the records are even parsed — no allocation proportional to the lie.
  auto f = parsed_;
  f.dims = {std::size_t{1} << 12, std::size_t{1} << 12, std::size_t{1} << 13};
  expect_reader_error(build_clk3(f), ErrorCode::kLimitExceeded);
}

TEST_F(ChunkedReaderFault, DeclaredTileCountBombIsLimitExceeded) {
  // A declared count past max_chunks refuses before any structural work;
  // the records backing the lie do not even exist in the frame.
  BuildTweaks tweaks;
  tweaks.declared_tiles = std::uint64_t{1} << 30;
  expect_reader_error(build_clk3(parsed_, tweaks), ErrorCode::kLimitExceeded);
}

TEST_F(ChunkedReaderFault, TightenedTileBudgetIsLimitExceeded) {
  ResourceLimits limits;
  limits.max_chunks = 4;  // frame has 8 perfectly valid tiles
  expect_reader_error(frame_, ErrorCode::kLimitExceeded, limits);
}

TEST_F(ChunkedReaderFault, CorruptTilePayloadFailsOnDecodeNotConstruction) {
  auto bytes = frame_;
  // Flip a payload byte of tile 0 (header untouched, so construction —
  // which only validates the index — succeeds).
  const std::size_t payload_base = bytes.size() - parsed_.payload.size();
  bytes[payload_base + 4] ^= 0xFF;
  const ChunkedReader reader(bytes);

  const DimVec lo(3, 0);
  const DimVec ext{2, 2, 2};  // inside tile 0
  std::vector<float> out(8);
  try {
    (void)reader.decompress_region(lo, ext, std::span<float>(out));
    FAIL() << "corrupt payload decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStream) << e.what();
  }
  // A window over the *other* tiles still decodes fine.
  const DimVec lo2{8, 6, 5};
  const DimVec ext2{8, 6, 5};
  std::vector<float> out2(Shape(DimVec(ext2)).size());
  const RegionStats rs =
      reader.decompress_region(lo2, ext2, std::span<float>(out2));
  EXPECT_EQ(rs.tiles_decoded, 1u);
}

TEST_F(ChunkedReaderFault, FullDecodeClassifiesHostileIndexToo) {
  // The unified decode path shares the validator: the same hostile frames
  // refuse identically through chunked_decompress.
  auto f = parsed_;
  f.tiles[1].offset = f.tiles[0].offset;
  const auto bytes = build_clk3(f);
  try {
    (void)chunked_decompress(bytes);
    FAIL() << "hostile index accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStream) << e.what();
  }
}

}  // namespace
}  // namespace cliz
