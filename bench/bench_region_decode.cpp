// Random-access decode microbenchmarks (google-benchmark): wall-clock and
// compressed-bytes-touched of window reads through ChunkedReader against a
// full-frame decode of the same tile-indexed stream. Backs the claim that
// a ~1% window costs <10% of the full decode on both axes, and that a warm
// TileCache serves repeated windows with zero tile re-decodes. The
// archive_read_region rows time the same window through an open
// ArchiveReader on a CLZA file, the path an archive user calls.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/bench_host.hpp"
#include "bench/bench_util.hpp"
#include "src/common/rng.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/tile_cache.hpp"
#include "src/io/archive.hpp"

namespace cliz {
namespace {

/// Shared fixture: a smooth synthetic climate-like field, compressed once
/// into the tile-indexed chunked layout. 64x256x256 samples split into
/// 8x32x32 tiles = 512 addressable tiles.
struct RegionContext {
  Shape shape{DimVec{64, 256, 256}};
  NdArray<float> data{Shape{DimVec{64, 256, 256}}};
  std::vector<std::uint8_t> frame;
  std::optional<ChunkedReader> reader;

  RegionContext() {
    Rng rng(11);
    std::size_t i = 0;
    for (std::size_t t = 0; t < shape.dim(0); ++t) {
      for (std::size_t y = 0; y < shape.dim(1); ++y) {
        for (std::size_t x = 0; x < shape.dim(2); ++x) {
          data[i++] = static_cast<float>(
              std::sin(0.05 * static_cast<double>(t) +
                       0.02 * static_cast<double>(y)) *
                  std::cos(0.03 * static_cast<double>(x)) +
              0.02 * rng.normal());
        }
      }
    }
    ChunkedOptions opts;
    opts.tile = {8, 32, 32};
    frame = chunked_compress(data, 1e-3, PipelineConfig::defaults(3), nullptr,
                             opts);
    reader.emplace(frame);
  }
};

RegionContext& ctx() {
  static RegionContext c;
  return c;
}

void report_region(benchmark::State& state, const RegionStats& rs,
                   std::size_t out_bytes) {
  state.SetBytesProcessed(
      static_cast<std::int64_t>(out_bytes * state.iterations()));
  state.counters["bytes_touched_ratio"] =
      static_cast<double>(rs.compressed_bytes_touched) /
      static_cast<double>(rs.frame_compressed_bytes);
  state.counters["tiles_decoded"] = static_cast<double>(rs.tiles_decoded);
  state.counters["tiles_cached"] = static_cast<double>(rs.tiles_from_cache);
}

/// Full-frame decode through the random-access layer — the denominator the
/// window reads are judged against.
void BM_RegionFull(benchmark::State& state) {
  auto& c = ctx();
  const DimVec origin(c.shape.ndims(), 0);
  const DimVec extent = c.shape.dims();
  std::vector<float> out(c.shape.size());
  ChunkedScratch scratch;
  RegionOptions opts;
  opts.scratch = &scratch;
  RegionStats rs;
  for (auto _ : state) {
    rs = c.reader->decompress_region(origin, extent, std::span<float>(out),
                                     opts);
    benchmark::DoNotOptimize(out.data());
  }
  report_region(state, rs, out.size() * sizeof(float));
}

/// ~0.8% window (8x64x64 of 64x256x256), decoded cold every iteration:
/// only the 4 intersecting tiles are read and decoded.
void BM_RegionWindowCold(benchmark::State& state) {
  auto& c = ctx();
  const DimVec origin{24, 96, 128};
  const DimVec extent{8, 64, 64};
  std::vector<float> out(Shape(extent).size());
  ChunkedScratch scratch;
  RegionOptions opts;
  opts.scratch = &scratch;
  RegionStats rs;
  for (auto _ : state) {
    rs = c.reader->decompress_region(origin, extent, std::span<float>(out),
                                     opts);
    benchmark::DoNotOptimize(out.data());
  }
  report_region(state, rs, out.size() * sizeof(float));
}

/// The same window served from a warm TileCache: after the first decode no
/// tile is decoded again (tiles_decoded == 0 in the steady state).
void BM_RegionWindowWarm(benchmark::State& state) {
  auto& c = ctx();
  const DimVec origin{24, 96, 128};
  const DimVec extent{8, 64, 64};
  std::vector<float> out(Shape(extent).size());
  TileCache cache;
  ChunkedScratch scratch;
  RegionOptions opts;
  opts.cache = &cache;
  opts.scratch = &scratch;
  // Warm-up decode populates the cache outside the timed loop.
  (void)c.reader->decompress_region(origin, extent, std::span<float>(out),
                                    opts);
  RegionStats rs;
  for (auto _ : state) {
    rs = c.reader->decompress_region(origin, extent, std::span<float>(out),
                                     opts);
    benchmark::DoNotOptimize(out.data());
  }
  report_region(state, rs, out.size() * sizeof(float));
}

/// Unaligned window: offset so every boundary cuts through tiles, forcing
/// the scatter path (partial-overlap copies) instead of contiguous decode.
void BM_RegionWindowUnaligned(benchmark::State& state) {
  auto& c = ctx();
  const DimVec origin{21, 77, 100};
  const DimVec extent{9, 70, 70};
  std::vector<float> out(Shape(extent).size());
  ChunkedScratch scratch;
  RegionOptions opts;
  opts.scratch = &scratch;
  RegionStats rs;
  for (auto _ : state) {
    rs = c.reader->decompress_region(origin, extent, std::span<float>(out),
                                     opts);
    benchmark::DoNotOptimize(out.data());
  }
  report_region(state, rs, out.size() * sizeof(float));
}

/// The fixture's field as a tiled variable of a CLZA archive written next
/// to the binary, with one reader kept open across iterations.
struct ArchiveRegionContext {
  std::string path = std::string(CLIZ_BENCH_DIR) + "/bench_region_decode.clza";
  std::optional<ArchiveReader> reader;

  ArchiveRegionContext() {
    {
      ArchiveWriter w(path);
      w.set_tile({8, 32, 32});
      w.add_variable("FIELD", ctx().data, 1e-3, PipelineConfig::defaults(3));
      w.finish();
    }
    reader.emplace(path);
  }
  ~ArchiveRegionContext() {
    reader.reset();
    std::remove(path.c_str());
  }
};

ArchiveRegionContext& archive_ctx() {
  static ArchiveRegionContext c;
  return c;
}

/// The window_cold/window_warm window through ArchiveReader::read_region:
/// no cache (its 4 tiles are fetched and decoded every call) or a warm
/// TileCache (served without decoding). The untimed first call opens the
/// variable's tile index, so the loop measures the per-call cost.
void BM_ArchiveReadRegion(benchmark::State& state, bool warm) {
  auto& c = archive_ctx();
  const DimVec origin{24, 96, 128};
  const DimVec extent{8, 64, 64};
  TileCache cache;
  TileCache* const cache_ptr = warm ? &cache : nullptr;
  RegionStats rs;
  (void)c.reader->read_region("FIELD", origin, extent, cache_ptr, &rs);
  for (auto _ : state) {
    const auto win =
        c.reader->read_region("FIELD", origin, extent, cache_ptr, &rs);
    benchmark::DoNotOptimize(win.data());
  }
  report_region(state, rs, Shape(extent).size() * sizeof(float));
}

}  // namespace
}  // namespace cliz

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark("region_decode/full", cliz::BM_RegionFull)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("region_decode/window_cold",
                               cliz::BM_RegionWindowCold)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("region_decode/window_warm",
                               cliz::BM_RegionWindowWarm)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("region_decode/window_unaligned",
                               cliz::BM_RegionWindowUnaligned)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("archive_read_region/cold",
                               cliz::BM_ArchiveReadRegion, false)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  benchmark::RegisterBenchmark("archive_read_region/warm",
                               cliz::BM_ArchiveReadRegion, true)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  cliz::bench::add_host_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
