#include "src/core/chunked.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <optional>

#include "src/common/bytestream.hpp"
#include "src/common/cpu_features.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/core/chunked_reader.hpp"

namespace cliz {

namespace {

// Retired v1 frame: still recognised, refused by ChunkedReader.
constexpr std::uint32_t kMagicV1 = detail::kChunkedMagicV1;  // "CLKS"
// v2 frame: the header (dims, chunk ranges, per-chunk payload CRCs) is
// front-loaded and covered by its own CRC32C, then the payload blocks
// follow. Covering the payload digests by the header digest means a spliced
// chunk (payload + its CRC swapped in from another frame) cannot pass.
constexpr std::uint32_t kMagicV2 = detail::kChunkedMagicV2;  // "CLK2"
// v3 frame: adds random access — per-tile N-D origin/extent plus payload
// byte offset/length live in the CRC-covered header, so a reader seeks
// straight to any tile. Written only when ChunkedOptions::tile is set; the
// default slab path keeps emitting v2 byte-identically.
constexpr std::uint32_t kMagicV3 = detail::kChunkedMagicV3;  // "CLK3"

/// Slab boundaries: `chunks` near-equal ranges of dim 0.
std::vector<std::pair<std::size_t, std::size_t>> slabs(std::size_t extent,
                                                       std::size_t chunks) {
  chunks = std::clamp<std::size_t>(chunks, 1, extent);
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = extent * c / chunks;
    const std::size_t hi = extent * (c + 1) / chunks;
    if (hi > lo) out.emplace_back(lo, hi);
  }
  return out;
}

/// One independently compressed piece of a frame: a tile, or a dim-0 slab
/// spanning every inner dimension.
struct Box {
  DimVec origin;
  DimVec extent;
};

/// Tile grid of the v3 layout: origin/extent boxes in raster order.
std::vector<Box> tile_grid(const Shape& shape, const DimVec& tile) {
  const std::size_t nd = shape.ndims();
  DimVec tdim(nd);
  DimVec counts(nd);
  std::size_t n_tiles = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    tdim[d] = tile[d] == 0 ? shape.dim(d)
                           : std::min(tile[d], shape.dim(d));
    counts[d] = (shape.dim(d) + tdim[d] - 1) / tdim[d];
    n_tiles *= counts[d];
  }
  std::vector<Box> boxes(n_tiles);
  DimVec idx(nd, 0);
  for (auto& box : boxes) {
    box.origin.resize(nd);
    box.extent.resize(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      box.origin[d] = idx[d] * tdim[d];
      box.extent[d] = std::min(tdim[d], shape.dim(d) - box.origin[d]);
    }
    for (std::size_t d = nd; d-- > 0;) {
      if (++idx[d] < counts[d]) break;
      idx[d] = 0;
    }
  }
  return boxes;
}

/// Assembles a CLK3 frame into `out`: CRC-covered header (dims, per-tile
/// geometry + payload ranges + payload digests), then the payloads back to
/// back. Offsets are recorded relative to the first payload byte.
void write_tile_frame(const Shape& shape, std::span<const Box> boxes,
                      std::span<const std::vector<std::uint8_t>> streams,
                      std::vector<std::uint8_t>& out) {
  ByteWriter w(std::move(out));
  w.put(kMagicV3);
  w.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) w.put_varint(d);
  w.put_varint(boxes.size());
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    for (const std::size_t o : boxes[i].origin) w.put_varint(o);
    for (const std::size_t e : boxes[i].extent) w.put_varint(e);
    w.put_varint(offset);
    w.put_varint(streams[i].size());
    w.put(crc32c(streams[i]));
    offset += streams[i].size();
  }
  w.put(crc32c(w.bytes().subspan(sizeof(kMagicV3))));
  for (const auto& s : streams) w.put_bytes(s);
  out = std::move(w).take();
}

}  // namespace

void detail::write_slab_frame(
    const Shape& shape,
    std::span<const std::pair<std::size_t, std::size_t>> ranges,
    std::span<const std::vector<std::uint8_t>> streams,
    std::vector<std::uint8_t>& out) {
  // CRC-covered header (dims, ranges, per-chunk payload digests) first,
  // payload blocks after.
  ByteWriter w(std::move(out));
  w.put(kMagicV2);
  w.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) w.put_varint(d);
  w.put_varint(ranges.size());
  for (std::size_t c = 0; c < ranges.size(); ++c) {
    w.put_varint(ranges[c].first);
    w.put_varint(ranges[c].second);
    w.put(crc32c(streams[c]));
  }
  w.put(crc32c(w.bytes().subspan(sizeof(kMagicV2))));
  for (std::size_t c = 0; c < ranges.size(); ++c) w.put_block(streams[c]);
  out = std::move(w).take();
}

/// Compresses every box of the frame as an independent CliZ stream, then
/// assembles the frame: CLK3 when a tiling is set, CLK2 dim-0 slabs (boxes
/// spanning every inner dim) otherwise.
template <Sample T>
void chunked_compress_into(const NdArray<T>& data, double abs_error_bound,
                           const PipelineConfig& config, const MaskMap* mask,
                           const ChunkedOptions& options,
                           std::vector<std::uint8_t>& out) {
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  const bool tiled = !options.tile.empty();
  CLIZ_REQUIRE_CODE(!tiled || options.tile.size() == nd, kBadArgument,
                    "tile arity does not match data dimensionality");
  if (mask != nullptr) {
    CLIZ_REQUIRE(mask->shape() == shape, "mask shape does not match data");
  }
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<Box> boxes;
  std::size_t requested = 0;
  if (tiled) {
    boxes = tile_grid(shape, options.tile);
    requested = boxes.size();
  } else {
    const std::size_t raw_bytes = data.size() * sizeof(T);
    requested = options.chunks > 0 ? options.chunks
                                    : (raw_bytes + kDefaultChunkBytes - 1) /
                                          kDefaultChunkBytes;
    ranges = slabs(shape.dim(0), requested);
    boxes.resize(ranges.size(), {DimVec(nd, 0), shape.dims()});
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      boxes[c].origin[0] = ranges[c].first;
      boxes[c].extent[0] = ranges[c].second - ranges[c].first;
    }
  }

  std::optional<ChunkedScratch> local;
  ChunkedScratch& scratch =
      options.scratch != nullptr ? *options.scratch : local.emplace();
  auto& streams = scratch.chunk_streams;
  if (streams.size() < boxes.size()) streams.resize(boxes.size());
  // Surface the clamp: dims[0] (or a degenerate request) can silently
  // reduce the slab count below what the caller asked for.
  scratch.stats.chunks_requested = requested;
  scratch.stats.chunks_effective = boxes.size();
  scratch.stats.threads_used = hardware_threads();

  // Hoisted codecs: constructing one per box would copy the config's
  // permutation/fusion vectors every iteration. Two instances cover both
  // outcomes of the two-period rule.
  const ClizCompressor codec(config, options.codec);
  std::optional<ClizCompressor> degraded;
  for (const auto& box : boxes) {
    if (detail::drops_period(config, box.extent)) {
      PipelineConfig dconfig = config;
      dconfig.period = 0;
      degraded.emplace(std::move(dconfig), options.codec);
      break;
    }
  }

  // What the boxes report, summed for the frame's stats.
  std::atomic<std::size_t> code_count{0};
  std::atomic<std::size_t> outlier_count{0};
  std::atomic<std::size_t> downgraded{0};

  const DimVec window_lo(nd, 0);
  scratch.pool.set_governor(options.codec.limits, options.codec.cancel);
  parallel_for_cancellable(0, boxes.size(), options.codec.cancel,
                           [&](std::size_t i) {
    const Box& box = boxes[i];
    Shape cshape(DimVec(box.extent));

    const ContextPool::Lease lease = scratch.pool.acquire();
    CodecContext& ctx = *lease;

    // Stage the box in the context's slab scratch (reused across calls); a
    // slab is one contiguous run of `data`, so this is a single copy.
    auto& sbuf = ctx.slab<T>();
    sbuf.resize(cshape.size());
    DimVec hi(nd);
    for (std::size_t d = 0; d < nd; ++d) hi[d] = box.origin[d] + box.extent[d];
    detail::copy_tile_box(
        reinterpret_cast<std::uint8_t*>(sbuf.data()), box.origin, box.extent,
        const_cast<std::uint8_t*>(
            reinterpret_cast<const std::uint8_t*>(data.data())),
        window_lo, shape.dims(), box.origin, hi, sizeof(T), /*gather=*/true);
    NdArray<T> chunk(std::move(cshape), std::move(sbuf));

    std::optional<MaskMap> cmask;
    if (mask != nullptr) cmask = mask->crop(box.origin, chunk.shape());

    const ClizCompressor& use =
        detail::drops_period(config, box.extent) ? *degraded : codec;
    use.compress_into(chunk, abs_error_bound,
                      cmask.has_value() ? &*cmask : nullptr, ctx, streams[i]);
    code_count.fetch_add(ctx.stats.code_count, std::memory_order_relaxed);
    outlier_count.fetch_add(ctx.stats.outlier_count,
                            std::memory_order_relaxed);
    if (ctx.stats.entropy_downgraded) {
      downgraded.fetch_add(1, std::memory_order_relaxed);
    }

    // Return the staging storage to the context for the next box.
    ctx.slab<T>() = std::move(chunk).take_flat();
  });

  // Every box runs the requested predictor; the entropy coder is the
  // requested one unless every box fell back to Huffman.
  StageStats& st = scratch.stats;
  st.predictor_backend = static_cast<std::uint8_t>(options.codec.predictor);
  const std::size_t n_downgraded = downgraded.load(std::memory_order_relaxed);
  st.entropy_backend = static_cast<std::uint8_t>(
      n_downgraded == boxes.size() ? EntropyBackend::kHuffman
                                   : options.codec.entropy);
  st.entropy_downgraded = n_downgraded > 0;
  st.simd_tier = static_cast<std::uint8_t>(active_simd_tier());
  st.code_count = code_count.load(std::memory_order_relaxed);
  st.outlier_count = outlier_count.load(std::memory_order_relaxed);

  const auto written =
      std::span<const std::vector<std::uint8_t>>(streams).first(boxes.size());
  if (tiled) {
    write_tile_frame(shape, boxes, written, out);
  } else {
    detail::write_slab_frame(shape, ranges, written, out);
  }
}

template <Sample T>
std::vector<std::uint8_t> chunked_compress(const NdArray<T>& data,
                                           double abs_error_bound,
                                           const PipelineConfig& config,
                                           const MaskMap* mask,
                                           const ChunkedOptions& options) {
  std::vector<std::uint8_t> out;
  chunked_compress_into(data, abs_error_bound, config, mask, options, out);
  return out;
}

template <Sample T>
NdArray<T> chunked_decompress(std::span<const std::uint8_t> stream,
                              ChunkedScratch* scratch_opt) {
  std::optional<ChunkedScratch> local;
  ChunkedScratch& scratch =
      scratch_opt != nullptr ? *scratch_opt : local.emplace();
  // The pool is the governor's carrier on the decode side: callers tighten
  // a request by set_governor on their scratch pool before decoding, and
  // every leased per-chunk context inherits the same budgets and token.
  const ResourceLimits& limits = scratch.pool.limits();
  const CancelToken* cancel = scratch.pool.cancel();
  if (cancel != nullptr) cancel->check();

  // One validated parse serves full and region decodes alike; a full
  // decode is simply the all-covering window (slab tiles of the v2
  // layout decode straight into their output runs, so this stays
  // staging-copy-free for the classic frames).
  const ChunkedReader reader(stream, limits, cancel);
  const Shape& shape = reader.shape();
  // Governor: the frame-level shape sizes the whole output. The per-chunk
  // CliZ streams are each governed on decode, but a frame sliced into many
  // small chunks must not bypass the aggregate cap — check the declared
  // total here, before the output array is sized on its behalf.
  CLIZ_REQUIRE_CODE(
      shape.size() <= limits.max_output_bytes / sizeof(T), kLimitExceeded,
      "declared chunked output size exceeds "
      "ResourceLimits::max_output_bytes");
  NdArray<T> out(shape);

  const DimVec zeros(shape.ndims(), 0);
  RegionOptions ropts;
  ropts.scratch = &scratch;
  (void)reader.decompress_region(zeros, shape.dims(),
                                 std::span<T>(out.data(), out.size()), ropts);
  return out;
}

#define CLIZ_INSTANTIATE(T)                                                  \
  template std::vector<std::uint8_t> chunked_compress<T>(                    \
      const NdArray<T>&, double, const PipelineConfig&, const MaskMap*,      \
      const ChunkedOptions&);                                                \
  template void chunked_compress_into<T>(                                    \
      const NdArray<T>&, double, const PipelineConfig&, const MaskMap*,      \
      const ChunkedOptions&, std::vector<std::uint8_t>&);                    \
  template NdArray<T> chunked_decompress<T>(std::span<const std::uint8_t>,   \
                                            ChunkedScratch*);
CLIZ_INSTANTIATE(float)
CLIZ_INSTANTIATE(double)
#undef CLIZ_INSTANTIATE

bool is_chunked_stream(std::span<const std::uint8_t> stream) {
  if (stream.size() < sizeof(std::uint32_t)) return false;
  std::uint32_t magic = 0;
  std::memcpy(&magic, stream.data(), sizeof(magic));
  return magic == kMagicV1 || magic == kMagicV2 || magic == kMagicV3;
}

}  // namespace cliz
