// SnapshotStreamWriter output is a CLK2 chunked frame: every test decodes
// it through the generic chunked paths (chunked_decompress, ChunkedReader
// windows and, when the CLI is built, `clizc decompress`).
#include "src/core/snapshot_stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

/// One synthetic snapshot at time t with an annual cycle.
NdArray<float> make_snapshot(const Shape& spatial, std::size_t t,
                             std::uint64_t seed) {
  NdArray<float> s(spatial);
  Rng rng(seed * 10000 + t);
  const double season =
      std::cos(2.0 * std::numbers::pi * static_cast<double>(t) / 12.0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = spatial.coords(i);
    s[i] = static_cast<float>(
        std::sin(0.2 * static_cast<double>(c[0])) +
        0.5 * season * std::cos(0.1 * static_cast<double>(c[1])) +
        0.005 * rng.normal());
  }
  return s;
}

PipelineConfig stream_config(std::size_t spatial_ndims, std::size_t period) {
  PipelineConfig config = PipelineConfig::defaults(spatial_ndims + 1);
  config.period = period;
  config.time_dim = 0;
  return config;
}

#ifdef CLIZC_PATH
/// Decodes `stream` with `clizc decompress` via temp files; empty on a
/// non-zero exit.
std::vector<float> clizc_decompress(const std::vector<std::uint8_t>& stream) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string stem = "cliz_snapshot_" + std::to_string(::getpid());
  const std::string in = (dir / (stem + ".clks")).string();
  const std::string out = (dir / (stem + ".f32")).string();
  {
    std::ofstream f(in, std::ios::binary | std::ios::trunc);
    f.write(reinterpret_cast<const char*>(stream.data()),
            static_cast<std::streamsize>(stream.size()));
  }
  const std::string cmd = std::string(CLIZC_PATH) + " decompress " + in +
                          " -o " + out + " >/dev/null 2>&1";
  std::vector<float> values;
  if (std::system(cmd.c_str()) == 0) {
    std::ifstream f(out, std::ios::binary);
    const std::vector<char> bytes{std::istreambuf_iterator<char>(f),
                                  std::istreambuf_iterator<char>()};
    values.resize(bytes.size() / sizeof(float));
    std::memcpy(values.data(), bytes.data(), values.size() * sizeof(float));
  }
  std::filesystem::remove(in);
  std::filesystem::remove(out);
  return values;
}
#endif

struct StreamCase {
  std::size_t n_snapshots;
  std::size_t per_block;
};

class SnapshotSweep : public ::testing::TestWithParam<StreamCase> {};

TEST_P(SnapshotSweep, RoundTripWithinBound) {
  const auto& [n, per_block] = GetParam();
  const Shape spatial({14, 18});
  const double eb = 1e-3;
  SnapshotStreamWriter writer(spatial, eb, stream_config(2, 0), nullptr,
                              per_block);
  std::vector<NdArray<float>> originals;
  for (std::size_t t = 0; t < n; ++t) {
    originals.push_back(make_snapshot(spatial, t, 1));
    writer.append(originals.back());
  }
  EXPECT_EQ(writer.snapshots_appended(), n);
  const auto stream = writer.finish();
  ASSERT_TRUE(is_chunked_stream(stream));
  const auto check_full = [&](std::span<const float> recon) {
    ASSERT_EQ(recon.size(), n * spatial.size());
    for (std::size_t t = 0; t < n; ++t) {
      for (std::size_t i = 0; i < spatial.size(); ++i) {
        ASSERT_LE(std::abs(static_cast<double>(
                      recon[t * spatial.size() + i]) -
                      static_cast<double>(originals[t][i])),
                  eb)
            << "t=" << t << " i=" << i;
      }
    }
  };

  const auto recon = chunked_decompress(stream);
  ASSERT_EQ(recon.shape(), Shape({n, 14, 18}));
  check_full(recon.flat());

  // One slab per block, and a window over the later half of the time axis
  // decodes from the slabs it touches alone.
  const ChunkedReader reader(stream);
  EXPECT_EQ(reader.tiles().size(), (n + per_block - 1) / per_block);
  const DimVec origin{n / 2, 3, 4};
  const DimVec extent{n - n / 2, 8, 10};
  std::vector<float> window(extent[0] * extent[1] * extent[2]);
  (void)reader.decompress_region(origin, extent, std::span<float>(window));
  std::size_t w = 0;
  for (std::size_t t = origin[0]; t < n; ++t) {
    for (std::size_t y = origin[1]; y < origin[1] + extent[1]; ++y) {
      for (std::size_t x = origin[2]; x < origin[2] + extent[2]; ++x) {
        ASSERT_LE(std::abs(static_cast<double>(window[w++]) -
                           static_cast<double>(originals[t][y * 18 + x])),
                  eb)
            << "window t=" << t << " y=" << y << " x=" << x;
      }
    }
  }

#ifdef CLIZC_PATH
  check_full(clizc_decompress(stream));
#endif
}

INSTANTIATE_TEST_SUITE_P(Cases, SnapshotSweep,
                         ::testing::Values(StreamCase{1, 12},
                                           StreamCase{5, 12},
                                           StreamCase{12, 12},
                                           StreamCase{13, 12},
                                           StreamCase{36, 12},
                                           StreamCase{37, 5},
                                           StreamCase{24, 24}));

TEST(SnapshotStream, BlocksFlushIncrementally) {
  const Shape spatial({8, 8});
  SnapshotStreamWriter writer(spatial, 1e-2, stream_config(2, 0), nullptr, 4);
  for (std::size_t t = 0; t < 9; ++t) {
    writer.append(make_snapshot(spatial, t, 2));
  }
  EXPECT_EQ(writer.blocks_flushed(), 2u);  // two full blocks of 4
  const auto stream = writer.finish();     // flushes the ninth
  EXPECT_EQ(writer.blocks_flushed(), 3u);
  const auto recon = chunked_decompress(stream);
  EXPECT_EQ(recon.shape().dim(0), 9u);
  // The blocks are the frame's slabs: 4 + 4 + 1 snapshots.
  const ChunkedReader reader(stream);
  ASSERT_EQ(reader.tiles().size(), 3u);
  EXPECT_EQ(reader.tiles()[2].origin[0], 8u);
  EXPECT_EQ(reader.tiles()[2].extent[0], 1u);
}

TEST(SnapshotStream, MaskedStreamingRoundTrip) {
  // Persistent spatial mask applied to every block.
  const Shape spatial({10, 12});
  auto mask = MaskMap::all_valid(spatial);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask.mutable_data()[i] = 0;

  const double eb = 1e-3;
  SnapshotStreamWriter writer(spatial, eb, stream_config(2, 0), &mask, 6);
  std::vector<NdArray<float>> originals;
  for (std::size_t t = 0; t < 14; ++t) {
    auto snap = make_snapshot(spatial, t, 3);
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (!mask.valid(i)) snap[i] = 9.96921e36f;
    }
    originals.push_back(snap);
    writer.append(snap);
  }
  const auto recon = chunked_decompress(writer.finish());
  for (std::size_t t = 0; t < 14; ++t) {
    for (std::size_t i = 0; i < spatial.size(); ++i) {
      const float got = recon[t * spatial.size() + i];
      if (mask.valid(i)) {
        ASSERT_LE(std::abs(static_cast<double>(got) -
                           static_cast<double>(originals[t][i])),
                  eb);
      } else {
        ASSERT_EQ(got, 9.96921e36f);
      }
    }
  }
}

TEST(SnapshotStream, PeriodicPipelinePerYearBlock) {
  // 24 monthly snapshots in 24-slice blocks: periodic extraction active.
  const Shape spatial({12, 12});
  const double eb = 1e-3;
  SnapshotStreamWriter writer(spatial, eb, stream_config(2, 12), nullptr,
                              24);
  std::vector<NdArray<float>> originals;
  for (std::size_t t = 0; t < 24; ++t) {
    originals.push_back(make_snapshot(spatial, t, 4));
    writer.append(originals.back());
  }
  const auto recon = chunked_decompress(writer.finish());
  for (std::size_t t = 0; t < 24; ++t) {
    for (std::size_t i = 0; i < spatial.size(); ++i) {
      ASSERT_LE(std::abs(static_cast<double>(
                    recon[t * spatial.size() + i]) -
                    static_cast<double>(originals[t][i])),
                eb);
    }
  }
}

TEST(SnapshotStream, MisuseRejected) {
  const Shape spatial({8, 8});
  EXPECT_THROW(SnapshotStreamWriter(spatial, 0.0, stream_config(2, 0)),
               Error);
  // Wrong pipeline arity.
  EXPECT_THROW(
      SnapshotStreamWriter(spatial, 1e-3, PipelineConfig::defaults(2)),
      Error);
  // Wrong snapshot shape.
  SnapshotStreamWriter writer(spatial, 1e-3, stream_config(2, 0));
  EXPECT_THROW(writer.append(NdArray<float>(Shape({8, 9}))), Error);
  // Finishing before any snapshot arrived is caller misuse.
  {
    SnapshotStreamWriter empty(spatial, 1e-3, stream_config(2, 0));
    try {
      (void)empty.finish();
      ADD_FAILURE() << "empty writer finished";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadArgument);
    }
  }
  // Finish twice / append after finish.
  writer.append(NdArray<float>(spatial));
  (void)writer.finish();
  EXPECT_THROW((void)writer.finish(), Error);
  EXPECT_THROW(writer.append(NdArray<float>(spatial)), Error);
}

TEST(SnapshotStream, CorruptStreamThrows) {
  const Shape spatial({8, 8});
  SnapshotStreamWriter writer(spatial, 1e-2, stream_config(2, 0));
  writer.append(make_snapshot(spatial, 0, 5));
  auto stream = writer.finish();
  auto truncated = stream;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)chunked_decompress(truncated), Error);
  EXPECT_THROW((void)chunked_decompress({}), Error);
  // The frame header is CRC-covered: a flipped bit past the magic is
  // caught before any block decodes.
  auto flipped = stream;
  flipped[5] ^= 0x01;
  EXPECT_THROW((void)chunked_decompress(flipped), Error);
}

}  // namespace
}  // namespace cliz
