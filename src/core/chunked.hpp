#pragma once

// Chunk-parallel compression: the paper's scaled experiments run one file
// per core; within a single large array the same parallelism is available
// by slicing along the slowest dimension into independent CliZ streams.
// Each chunk is a self-contained stream (its own tuning artifacts travel
// in the frame), so decompression parallelizes the same way and chunks can
// even be shipped/decoded individually.
//
// Note: periodic-component extraction needs at least two periods along the
// time dimension *within a chunk* (slab or tile); prefer layouts that keep
// the chunk's time extent >= 2 * period (the codec silently disables the
// feature per-chunk otherwise, still honouring the error bound).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/core/cliz.hpp"
#include "src/core/context_pool.hpp"
#include "src/core/stage_stats.hpp"

namespace cliz {

/// Reusable scratch for the chunked codec: a context pool (one
/// CodecContext per worker thread, leased per chunk) plus the per-chunk
/// stream staging buffers. Pass one via ChunkedOptions::scratch (compress)
/// or the scratch parameter (decompress) to make repeated same-shape
/// chunked calls run at the steady-state allocation profile of a single
/// reused context — without one, every call builds its own pool.
///
/// Ownership rules mirror CodecContext: a scratch may be reused across any
/// sequence of chunked calls but must not be shared by two concurrent
/// calls. Streams produced through a reused scratch are byte-identical to
/// ones produced without it.
struct ChunkedScratch {
  ContextPool pool;
  /// Per-chunk compressed-stream staging (compress side; capacity kept).
  std::vector<std::vector<std::uint8_t>> chunk_streams;
  /// Frame-level telemetry of the most recent chunked call routed through
  /// this scratch — in particular chunks_requested vs chunks_effective, so
  /// a silently clamped chunk count (dims[0] < requested slabs) is visible
  /// to callers and to `clizc --stats`.
  StageStats stats;
};

/// Raw bytes per slab when ChunkedOptions::chunks is 0, and
/// ArchiveWriter's default chunk threshold.
inline constexpr std::size_t kDefaultChunkBytes = std::size_t{8} << 20;

struct ChunkedOptions {
  /// Number of slabs along dim 0; 0 = one per kDefaultChunkBytes of raw
  /// data (rounded up), so the frame depends on the data alone and never
  /// on the worker-thread count. The effective count is clamped to
  /// [1, dims[0]] — the clamp is reported via ChunkedScratch::stats
  /// (chunks_requested / chunks_effective).
  std::size_t chunks = 0;
  /// Optional N-D tile extents, one per dimension of the data (arity must
  /// match; kBadArgument otherwise). Empty (the default) keeps the dim-0
  /// slab layout and the CLK2 frame — byte-identical to previous releases.
  /// Non-empty switches the frame to the tile-indexed "CLK3" layout whose
  /// header records every tile's origin/extent and payload byte range, the
  /// random-access substrate ChunkedReader::decompress_region seeks into.
  /// A zero entry means "full extent along this dim"; entries larger than
  /// the dim are clamped. `chunks` is ignored when a tiling is set.
  DimVec tile;
  ClizOptions codec;
  /// Optional reusable scratch (not owned; may be nullptr).
  ChunkedScratch* scratch = nullptr;
};

/// Compresses `data` as independent slabs along dim 0 (in parallel when
/// OpenMP is enabled). Error bound semantics identical to ClizCompressor.
/// Both sample types share one frame format; the width is recorded by the
/// per-chunk CliZ streams and must match on decompression.
template <Sample T>
std::vector<std::uint8_t> chunked_compress(const NdArray<T>& data,
                                           double abs_error_bound,
                                           const PipelineConfig& config,
                                           const MaskMap* mask = nullptr,
                                           const ChunkedOptions& options = {});

/// Capacity-reusing variant: the frame is assembled into `out` (contents
/// replaced, storage reused), completing the allocation-free steady state
/// when paired with an options.scratch.
template <Sample T>
void chunked_compress_into(const NdArray<T>& data, double abs_error_bound,
                           const PipelineConfig& config, const MaskMap* mask,
                           const ChunkedOptions& options,
                           std::vector<std::uint8_t>& out);

/// Inverse of chunked_compress (chunks decoded in parallel through the
/// scratch's context pool when one is supplied). T must be the frame's
/// sample type: ChunkedReader::sample_bytes() tells which it is.
template <Sample T = float>
NdArray<T> chunked_decompress(std::span<const std::uint8_t> stream,
                              ChunkedScratch* scratch = nullptr);

/// True when `stream` starts with a chunked frame magic ("CLK3" for the
/// tile-indexed random-access layout, "CLK2" for the CRC-framed slab
/// layout, or the retired checksum-less "CLKS", which decoding refuses
/// with kUnsupported).
[[nodiscard]] bool is_chunked_stream(std::span<const std::uint8_t> stream);

namespace detail {
/// The two-period rule: a chunk whose extent along `config.time_dim` is
/// under two periods compresses with the period dropped.
/// Slabs and tiles both decide through it.
[[nodiscard]] inline bool drops_period(const PipelineConfig& config,
                                       std::span<const std::size_t> extent) {
  return config.period > 0 && config.time_dim < extent.size() &&
         extent[config.time_dim] < 2 * config.period;
}

/// Assembles a CLK2 slab frame into `out` (contents replaced, capacity
/// reused): `streams[i]` is the CliZ stream of dim-0 range `ranges[i]`
/// ([first, second)), and the ranges tile dim 0 of `shape` in order.
/// chunked_compress writes every CLK2 frame through it.
void write_slab_frame(
    const Shape& shape,
    std::span<const std::pair<std::size_t, std::size_t>> ranges,
    std::span<const std::vector<std::uint8_t>> streams,
    std::vector<std::uint8_t>& out);
}  // namespace detail

}  // namespace cliz
