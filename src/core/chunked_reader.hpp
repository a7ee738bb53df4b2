#pragma once

// Random-access layer over chunked frames: parse + validate the tile index
// once, then serve arbitrary N-D window reads by decoding only the tiles
// the window intersects. `clizc extract --region` and
// ArchiveReader::read_region serve windows through it — a lat/lon window
// over a tiled variable touches a handful of tiles instead of the whole
// payload.
//
// Both written frame generations are addressable:
//  - "CLK3": tile-indexed layout — per-tile origin/extent AND byte
//    offset/length live in the CRC-protected header, so any tile is one
//    seek away (written when ChunkedOptions::tile is set).
//  - "CLK2": dim-0 slab layout — ranges and payload CRCs are in the
//    header but block byte offsets are not; the reader recovers them by
//    walking the length-prefixed block chain (a few bytes per chunk, not
//    the payload itself), after which slabs address like tiles.
// The retired checksum-less "CLKS" layout is refused with kUnsupported.
//
// The index is validated under the resource governor before anything
// payload-proportional is allocated: declared extents and tile counts are
// limit-checked, the tiling must partition the shape exactly (no overlap,
// no gap), and every payload range must land inside the frame without
// overlapping another tile's bytes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "src/core/chunked.hpp"
#include "src/core/tile_cache.hpp"
#include "src/ndarray/shape.hpp"

namespace cliz {

/// One addressable tile of a chunked frame, in index order. `offset` is
/// absolute within the frame (byte 0 = first magic byte) so a file-backed
/// reader can hand it straight to pread.
struct TileRecord {
  DimVec origin;               ///< per-dim start, in samples
  DimVec extent;               ///< per-dim length, in samples
  std::uint64_t offset = 0;    ///< compressed payload start within the frame
  std::uint64_t n_bytes = 0;   ///< compressed payload length
  std::uint32_t crc = 0;       ///< CRC32C of the payload
};

/// Telemetry of one decompress_region call: how much of the frame a window
/// actually cost. `compressed_bytes_touched / frame_compressed_bytes` is
/// the bytes-touched ratio the bench suite tracks; a warm cache shows up
/// as tiles_from_cache == tiles_intersecting with tiles_decoded == 0.
struct RegionStats {
  std::size_t tiles_total = 0;          ///< tiles in the frame
  std::size_t tiles_intersecting = 0;   ///< tiles overlapping the window
  std::size_t tiles_decoded = 0;        ///< tiles actually decoded
  std::size_t tiles_from_cache = 0;     ///< tiles served from the TileCache
  std::uint64_t compressed_bytes_touched = 0;  ///< payload bytes read+decoded
  std::uint64_t frame_compressed_bytes = 0;    ///< whole-frame byte size
};

/// Per-call knobs for ChunkedReader::decompress_region.
struct RegionOptions {
  /// Decoded-tile cache shared across readers; nullptr = no caching. The
  /// frame's entries are namespaced by a digest of its tile index, so the
  /// same frame bytes hit from any reader and distinct frames never share.
  TileCache* cache = nullptr;
  /// Optional reusable scratch (context pool) — same contract as the
  /// full-frame decode entry points.
  ChunkedScratch* scratch = nullptr;
};

/// Validated random-access view of one chunked frame. Construction parses
/// and fully validates the tile index under `limits`; decompress_region
/// then decodes only intersecting tiles (in parallel, cancellable, each
/// worker governed through the scratch pool) and scatters the overlap into
/// the caller's row-major window buffer.
///
/// A reader is immutable after construction and safe to share across
/// threads; concurrent decompress_region calls must use distinct
/// ChunkedScratch instances (or none).
class ChunkedReader {
 public:
  /// Reads `offset`/`n_bytes` of the frame into `dst` (file-backed mode).
  /// Called from parallel decode workers — implementations must be
  /// thread-safe (pread, or seek+read under a lock).
  using Fetch = std::function<void(std::uint64_t offset, std::uint64_t n_bytes,
                                   std::uint8_t* dst)>;

  /// In-memory frame. `frame` must outlive the reader.
  explicit ChunkedReader(std::span<const std::uint8_t> frame,
                         const ResourceLimits& limits = {},
                         const CancelToken* cancel = nullptr);

  /// File-backed frame: `header` holds at least the frame's index bytes
  /// (for v3 that is a few dozen bytes per tile; a caller that guesses too
  /// short sees kCorruptStream "stream truncated" and retries with a longer
  /// prefix), `frame_bytes` the full frame size, and `fetch` serves payload
  /// byte ranges on demand. `header` is read only during construction (the
  /// parsed tile records are kept; every payload, the probe in
  /// sample_bytes() included, comes through `fetch`), so the caller may
  /// free it as soon as the constructor returns. `fetch` is kept and must
  /// stay callable for the reader's lifetime.
  ChunkedReader(std::span<const std::uint8_t> header, std::uint64_t frame_bytes,
                Fetch fetch, const ResourceLimits& limits = {},
                const CancelToken* cancel = nullptr);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::span<const TileRecord> tiles() const noexcept {
    return tiles_;
  }
  [[nodiscard]] std::uint64_t frame_bytes() const noexcept {
    return frame_bytes_;
  }

  /// Bytes per sample (4 = float32, 8 = float64), probed from the first
  /// tile's embedded CliZ stream on first use (one tile fetch + lossless
  /// unwrap; cached afterwards).
  [[nodiscard]] unsigned sample_bytes() const;

  /// Decodes the window [origin, origin+extent) into `out` (row-major,
  /// exactly prod(extent) elements — kBadArgument otherwise). Only tiles
  /// intersecting the window are read and decoded; each decoded tile's
  /// payload CRC is verified first. T must be the frame's sample type
  /// (sample_bytes()). Returns the call's cost telemetry.
  template <Sample T>
  RegionStats decompress_region(std::span<const std::size_t> origin,
                                std::span<const std::size_t> extent,
                                std::span<T> out,
                                const RegionOptions& options = {}) const;

 private:
  void parse_and_validate(std::span<const std::uint8_t> header);

  Shape shape_;
  std::vector<TileRecord> tiles_;
  std::span<const std::uint8_t> frame_;  ///< empty in file-backed mode
  Fetch fetch_;                          ///< empty in in-memory mode
  std::uint64_t frame_bytes_ = 0;
  ResourceLimits limits_;
  const CancelToken* cancel_ = nullptr;
  /// TileCache namespace: digest of the frame's index bytes (every tile's
  /// geometry and payload CRC) and its size.
  std::uint64_t frame_digest_ = 0;
  /// Lazy probe cache (0 = not probed yet).
  mutable std::atomic<unsigned> sample_bytes_{0};
};

namespace detail {
/// Copies the intersection box [ilo, ihi) (global coordinates) between a
/// tile buffer (row-major over `textent`, anchored at `torigin`) and a
/// window buffer (row-major over `wext`, anchored at `wlo`), one run per
/// memcpy. A run is the innermost dim plus every trailing dim the box
/// spans completely in both buffers, so a dim-0 slab of a whole array is a
/// single copy. `gather` = false moves tile -> window (decode scatter);
/// true moves window -> tile (encode gather).
void copy_tile_box(std::uint8_t* tile_buf, std::span<const std::size_t> torigin,
                   std::span<const std::size_t> textent,
                   std::uint8_t* window_buf, std::span<const std::size_t> wlo,
                   std::span<const std::size_t> wext,
                   std::span<const std::size_t> ilo,
                   std::span<const std::size_t> ihi, std::size_t elem_size,
                   bool gather);

/// Chunked-frame magics, shared by the writer (chunked.cpp) and the reader.
/// "CLKS" is retired: is_chunked_stream still recognises it so that such a
/// frame reaches the reader's kUnsupported refusal.
inline constexpr std::uint32_t kChunkedMagicV1 = 0x434C4B53u;  // "CLKS"
inline constexpr std::uint32_t kChunkedMagicV2 = 0x434C4B32u;  // "CLK2"
inline constexpr std::uint32_t kChunkedMagicV3 = 0x434C4B33u;  // "CLK3"
}  // namespace detail

}  // namespace cliz
