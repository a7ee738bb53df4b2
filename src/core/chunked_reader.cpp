#include "src/core/chunked_reader.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <optional>
#include <utility>

#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagicV1 = detail::kChunkedMagicV1;
constexpr std::uint32_t kMagicV2 = detail::kChunkedMagicV2;
constexpr std::uint32_t kMagicV3 = detail::kChunkedMagicV3;

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                    std::uint64_t h = 0xCBF29CE484222325ull) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// TileCache namespace of a frame: digest of its index bytes and its size.
std::uint64_t index_digest(std::span<const std::uint8_t> index,
                           std::uint64_t frame_bytes) {
  return fnv1a(std::span<const std::uint8_t>(
                   reinterpret_cast<const std::uint8_t*>(&frame_bytes),
                   sizeof(frame_bytes)),
               fnv1a(index));
}

/// Row-major strides (in elements) of an extent vector.
DimVec strides_of(std::span<const std::size_t> extent) {
  DimVec s(extent.size());
  std::size_t acc = 1;
  for (std::size_t i = extent.size(); i-- > 0;) {
    s[i] = acc;
    acc *= extent[i];
  }
  return s;
}

std::size_t product_of(std::span<const std::size_t> v) {
  std::size_t p = 1;
  for (const std::size_t x : v) p *= x;
  return p;
}

/// True when the tile [origin, origin+extent) intersects the window
/// [wlo, wlo+wext) in every dimension.
bool tile_intersects(const TileRecord& tile, std::span<const std::size_t> wlo,
                     std::span<const std::size_t> wext) {
  for (std::size_t d = 0; d < tile.origin.size(); ++d) {
    if (tile.origin[d] >= wlo[d] + wext[d]) return false;
    if (wlo[d] >= tile.origin[d] + tile.extent[d]) return false;
  }
  return true;
}

}  // namespace

namespace detail {

void copy_tile_box(std::uint8_t* tile_buf, std::span<const std::size_t> torigin,
                   std::span<const std::size_t> textent,
                   std::uint8_t* window_buf, std::span<const std::size_t> wlo,
                   std::span<const std::size_t> wext,
                   std::span<const std::size_t> ilo,
                   std::span<const std::size_t> ihi, std::size_t elem_size,
                   bool gather) {
  const std::size_t nd = torigin.size();
  // Fold trailing dims the box spans completely in both buffers into the
  // run: consecutive rows of the next-outer dim are then adjacent in both,
  // so a slab (or any whole-row box) moves as one memcpy.
  const auto spans_both = [&](std::size_t d) {
    return ilo[d] == torigin[d] && ihi[d] == torigin[d] + textent[d] &&
           ilo[d] == wlo[d] && ihi[d] == wlo[d] + wext[d];
  };
  std::size_t k = nd - 1;  // outermost dim inside the run
  while (k > 0 && spans_both(k)) --k;
  std::size_t run = elem_size;
  for (std::size_t d = k; d < nd; ++d) run *= ihi[d] - ilo[d];
  std::size_t rows = 1;
  for (std::size_t d = 0; d < k; ++d) rows *= ihi[d] - ilo[d];

  DimVec idx(k, 0);  // empty, so allocation-free, for a one-run box
  for (std::size_t r = 0; r < rows; ++r) {
    // Row-major offsets of the run's first sample, by Horner's rule over
    // each buffer's extents (no stride tables to build per call).
    std::size_t toff = 0;
    std::size_t woff = 0;
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t c = ilo[d] + (d < k ? idx[d] : 0);
      toff = toff * textent[d] + (c - torigin[d]);
      woff = woff * wext[d] + (c - wlo[d]);
    }
    std::uint8_t* t = tile_buf + toff * elem_size;
    std::uint8_t* w = window_buf + woff * elem_size;
    if (gather) {
      std::memcpy(t, w, run);
    } else {
      std::memcpy(w, t, run);
    }
    // Odometer over the dims outside the run, innermost-first.
    for (std::size_t d = k; d-- > 0;) {
      if (++idx[d] < ihi[d] - ilo[d]) break;
      idx[d] = 0;
    }
  }
}

}  // namespace detail

ChunkedReader::ChunkedReader(std::span<const std::uint8_t> frame,
                             const ResourceLimits& limits,
                             const CancelToken* cancel)
    : frame_(frame),
      frame_bytes_(frame.size()),
      limits_(limits),
      cancel_(cancel) {
  parse_and_validate(frame);
}

ChunkedReader::ChunkedReader(std::span<const std::uint8_t> header,
                             std::uint64_t frame_bytes, Fetch fetch,
                             const ResourceLimits& limits,
                             const CancelToken* cancel)
    : fetch_(std::move(fetch)),
      frame_bytes_(frame_bytes),
      limits_(limits),
      cancel_(cancel) {
  CLIZ_REQUIRE_CODE(fetch_ != nullptr, kBadArgument,
                    "file-backed ChunkedReader needs a fetch callback");
  CLIZ_REQUIRE(header.size() <= frame_bytes, "header prefix exceeds frame");
  parse_and_validate(header);
}

void ChunkedReader::parse_and_validate(std::span<const std::uint8_t> header) {
  ByteReader in(header);
  const std::uint32_t magic = in.get<std::uint32_t>();
  // The checksum-less v1 layout is retired: refused before anything is
  // sized from the frame.
  CLIZ_REQUIRE_CODE(magic != kMagicV1, kUnsupported,
                    "retired CLKS chunked frame (v1, no CRCs) is no longer "
                    "decodable");
  CLIZ_REQUIRE(magic == kMagicV2 || magic == kMagicV3, "not a chunked stream");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= 8, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  // Governor: declared extents size the output array; reject a hostile
  // header before Shape validates (and before anything allocates on it).
  {
    std::uint64_t declared = 1;
    bool within = true;
    for (const std::size_t d : dims) {
      within = within &&
               detail::checked_mul_within(declared, d, limits_.max_extents);
      if (!within) break;
    }
    CLIZ_REQUIRE_CODE(within, kLimitExceeded,
                      "declared chunked extents exceed "
                      "ResourceLimits::max_extents (header offset " +
                          std::to_string(in.pos()) + ")");
  }
  shape_ = Shape(std::move(dims));
  const std::size_t n_tiles = static_cast<std::size_t>(in.get_varint());
  // Governor first: the tile count sizes the index (and one decode task per
  // entry) — an inflated declaration is a limit refusal even when it would
  // also fail the structural cross-checks below.
  CLIZ_REQUIRE_CODE(n_tiles <= limits_.max_chunks, kLimitExceeded,
                    "declared chunk count exceeds ResourceLimits::max_chunks "
                    "(header offset " +
                        std::to_string(in.pos()) + ")");

  if (magic != kMagicV3) {
    // v2: dim-0 slabs. Ranges must tile dim 0 exactly, in order.
    CLIZ_REQUIRE(n_tiles >= 1 && n_tiles <= shape_.dim(0),
                 "corrupt chunk count");
    tiles_.resize(n_tiles);
    std::size_t expected = 0;
    for (auto& t : tiles_) {
      const std::size_t lo = static_cast<std::size_t>(in.get_varint());
      const std::size_t hi = static_cast<std::size_t>(in.get_varint());
      CLIZ_REQUIRE(lo == expected && hi > lo && hi <= shape_.dim(0),
                   "corrupt chunk ranges");
      expected = hi;
      t.origin.assign(shape_.ndims(), 0);
      t.origin[0] = lo;
      t.extent = shape_.dims();
      t.extent[0] = hi - lo;
      t.crc = in.get<std::uint32_t>();
    }
    CLIZ_REQUIRE(expected == shape_.dim(0), "chunks do not cover dim 0");
    const std::size_t header_end = in.pos();
    const std::uint32_t header_crc = in.get<std::uint32_t>();
    CLIZ_REQUIRE(crc32c(header.subspan(sizeof(kMagicV2),
                                       header_end - sizeof(kMagicV2))) ==
                     header_crc,
                 "chunked frame header CRC mismatch");
    // v2 records no payload offsets: recover them by walking the
    // length-prefixed block chain — a few bytes per chunk, fetched on
    // demand in file-backed mode, never the payloads themselves.
    std::uint64_t cursor = in.pos();
    for (auto& t : tiles_) {
      std::uint8_t buf[10];
      const std::uint64_t avail =
          std::min<std::uint64_t>(sizeof(buf), frame_bytes_ - cursor);
      CLIZ_REQUIRE(avail > 0, "stream truncated (u8)");
      if (!frame_.empty()) {
        std::memcpy(buf, frame_.data() + cursor,
                    static_cast<std::size_t>(avail));
      } else {
        fetch_(cursor, avail, buf);
      }
      std::uint64_t len = 0;
      std::uint64_t used = 0;
      int shift = 0;
      for (;;) {
        CLIZ_REQUIRE(used < avail, "stream truncated (u8)");
        CLIZ_REQUIRE(shift < 64, "varint overlong");
        const std::uint8_t b = buf[used++];
        len |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
        if ((b & 0x80u) == 0) break;
        shift += 7;
      }
      cursor += used;
      CLIZ_REQUIRE(len <= frame_bytes_ - cursor,
                   "block length exceeds stream");
      t.offset = cursor;
      t.n_bytes = len;
      cursor += len;
    }
    frame_digest_ = index_digest(header.subspan(0, header_end), frame_bytes_);
    return;
  }

  // v3: explicit N-D tile index — origin/extent plus payload byte ranges,
  // all inside the CRC-covered header. Each tile is >= 1 element, so a
  // structurally valid count can never exceed the declared element total.
  CLIZ_REQUIRE(n_tiles >= 1 && n_tiles <= shape_.size(), "corrupt tile count");
  tiles_.resize(n_tiles);
  for (auto& t : tiles_) {
    t.origin.resize(shape_.ndims());
    t.extent.resize(shape_.ndims());
    for (auto& o : t.origin) o = static_cast<std::size_t>(in.get_varint());
    for (auto& e : t.extent) e = static_cast<std::size_t>(in.get_varint());
    t.offset = in.get_varint();  // relative to the payload base for now
    t.n_bytes = in.get_varint();
    t.crc = in.get<std::uint32_t>();
  }
  const std::size_t header_end = in.pos();
  const std::uint32_t header_crc = in.get<std::uint32_t>();
  CLIZ_REQUIRE(
      crc32c(header.subspan(sizeof(kMagicV3), header_end - sizeof(kMagicV3))) ==
          header_crc,
      "chunked frame header CRC mismatch");
  const std::uint64_t payload_base = in.pos();

  // Geometry: every tile must sit inside the declared shape, and together
  // the tiles must partition it as an exact grid — the per-dim origin sets
  // define the grid lines, each tile must span exactly one cell, and every
  // cell must be claimed exactly once.
  std::vector<DimVec> bounds(shape_.ndims());
  for (const auto& t : tiles_) {
    for (std::size_t d = 0; d < shape_.ndims(); ++d) {
      CLIZ_REQUIRE(t.extent[d] >= 1 && t.origin[d] <= shape_.dim(d) &&
                       t.extent[d] <= shape_.dim(d) - t.origin[d],
                   "tile extent exceeds declared shape");
      bounds[d].push_back(t.origin[d]);
    }
  }
  DimVec counts(shape_.ndims());
  for (std::size_t d = 0; d < shape_.ndims(); ++d) {
    auto& b = bounds[d];
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    CLIZ_REQUIRE(b.front() == 0, "tiles do not partition the declared shape");
    counts[d] = b.size();
  }
  {
    std::uint64_t cells = 1;
    bool within = true;
    for (const std::size_t c : counts) {
      within = within && detail::checked_mul_within(cells, c, shape_.size());
    }
    CLIZ_REQUIRE(within && cells == n_tiles,
                 "tiles do not partition the declared shape");
  }
  const DimVec cell_stride = strides_of(counts);
  std::vector<bool> claimed(n_tiles, false);
  for (const auto& t : tiles_) {
    std::size_t cell = 0;
    for (std::size_t d = 0; d < shape_.ndims(); ++d) {
      const auto& b = bounds[d];
      const auto it = std::lower_bound(b.begin(), b.end(), t.origin[d]);
      const std::size_t id = static_cast<std::size_t>(it - b.begin());
      const std::size_t next =
          id + 1 < b.size() ? b[id + 1] : shape_.dim(d);
      CLIZ_REQUIRE(t.origin[d] + t.extent[d] == next,
                   "tiles do not partition the declared shape");
      cell += id * cell_stride[d];
    }
    CLIZ_REQUIRE(!claimed[cell], "overlapping tiles");
    claimed[cell] = true;
  }

  // Payload ranges: inside the frame, non-empty, and pairwise disjoint.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  ranges.reserve(n_tiles);
  for (auto& t : tiles_) {
    CLIZ_REQUIRE(t.n_bytes >= 1 &&
                     t.offset <= frame_bytes_ - payload_base &&
                     t.n_bytes <= frame_bytes_ - payload_base - t.offset,
                 "tile payload range out of bounds");
    t.offset += payload_base;  // absolute within the frame from here on
    ranges.emplace_back(t.offset, t.n_bytes);
  }
  std::sort(ranges.begin(), ranges.end());
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    CLIZ_REQUIRE(ranges[i].first >= ranges[i - 1].first + ranges[i - 1].second,
                 "overlapping tile payload ranges");
  }

  frame_digest_ = index_digest(header.subspan(0, header_end), frame_bytes_);
}

unsigned ChunkedReader::sample_bytes() const {
  const unsigned cached = sample_bytes_.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  std::vector<std::uint8_t> buf;
  std::span<const std::uint8_t> payload;
  const TileRecord& t = tiles_.front();
  if (!frame_.empty()) {
    payload = frame_.subspan(static_cast<std::size_t>(t.offset),
                             static_cast<std::size_t>(t.n_bytes));
  } else {
    buf.resize(static_cast<std::size_t>(t.n_bytes));
    fetch_(t.offset, t.n_bytes, buf.data());
    payload = buf;
  }
  const unsigned width = detect_sample_bytes(payload, limits_);
  sample_bytes_.store(width, std::memory_order_release);
  return width;
}

template <Sample T>
RegionStats ChunkedReader::decompress_region(
    std::span<const std::size_t> origin, std::span<const std::size_t> extent,
    std::span<T> out, const RegionOptions& options) const {
  const std::size_t nd = shape_.ndims();
  CLIZ_REQUIRE_CODE(origin.size() == nd && extent.size() == nd, kBadArgument,
                    "region arity does not match frame dimensionality");
  std::size_t elems = 1;
  for (std::size_t d = 0; d < nd; ++d) {
    CLIZ_REQUIRE_CODE(extent[d] >= 1 && origin[d] <= shape_.dim(d) &&
                          extent[d] <= shape_.dim(d) - origin[d],
                      kBadArgument, "region out of bounds");
    elems *= extent[d];  // cannot overflow: bounded by shape_.size()
  }
  CLIZ_REQUIRE_CODE(out.size() == elems, kBadArgument,
                    "region output span size mismatch");
  CLIZ_REQUIRE_CODE(elems <= limits_.max_output_bytes / sizeof(T),
                    kLimitExceeded,
                    "requested region exceeds "
                    "ResourceLimits::max_output_bytes");
  if (cancel_ != nullptr) cancel_->check();

  std::vector<std::size_t> hit;
  for (std::size_t i = 0; i < tiles_.size(); ++i) {
    if (tile_intersects(tiles_[i], origin, extent)) hit.push_back(i);
  }

  RegionStats st;
  st.tiles_total = tiles_.size();
  st.tiles_intersecting = hit.size();
  st.frame_compressed_bytes = frame_bytes_;

  std::optional<ChunkedScratch> local;
  ChunkedScratch& scratch =
      options.scratch != nullptr ? *options.scratch : local.emplace();
  scratch.pool.set_governor(limits_, cancel_);

  const std::uint64_t evictions_before =
      options.cache != nullptr ? options.cache->stats().evictions : 0;
  std::atomic<std::size_t> decoded{0};
  std::atomic<std::size_t> from_cache{0};
  std::atomic<std::uint64_t> bytes_touched{0};

  // Whether a tile's decoded buffer lands as one contiguous run of `out`:
  // true when the tile spans the window fully on every inner dim and sits
  // inside it on dim 0 — always the case for a full-frame decode of slab
  // chunks, which therefore keeps decoding straight into the output with
  // no staging copy.
  const auto contiguous_dest = [&](const TileRecord& t) {
    if (t.origin[0] < origin[0] ||
        t.origin[0] + t.extent[0] > origin[0] + extent[0]) {
      return false;
    }
    for (std::size_t d = 1; d < nd; ++d) {
      if (t.origin[d] != origin[d] || t.extent[d] != extent[d]) return false;
    }
    return true;
  };
  const std::size_t row = elems / extent[0];

  parallel_for_cancellable(0, hit.size(), cancel_, [&](std::size_t i) {
    const std::size_t tile_index = hit[i];
    const TileRecord& t = tiles_[tile_index];
    const std::size_t tile_elems = product_of(t.extent);

    // Intersection box in global coordinates.
    DimVec ilo(nd), ihi(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      ilo[d] = std::max(t.origin[d], origin[d]);
      ihi[d] = std::min(t.origin[d] + t.extent[d], origin[d] + extent[d]);
    }

    const TileCache::Key key{frame_digest_, tile_index, t.crc};
    if (options.cache != nullptr) {
      if (const TileCache::Payload hit_payload = options.cache->lookup(key);
          hit_payload != nullptr &&
          hit_payload->size() == tile_elems * sizeof(T)) {
        detail::copy_tile_box(const_cast<std::uint8_t*>(hit_payload->data()),
                              t.origin, t.extent,
                              reinterpret_cast<std::uint8_t*>(out.data()),
                              origin, extent, ilo, ihi, sizeof(T),
                              /*gather=*/false);
        from_cache.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }

    const ContextPool::Lease lease = scratch.pool.acquire();
    std::vector<std::uint8_t> fbuf;
    std::span<const std::uint8_t> payload;
    if (!frame_.empty()) {
      payload = frame_.subspan(static_cast<std::size_t>(t.offset),
                               static_cast<std::size_t>(t.n_bytes));
    } else {
      fbuf.resize(static_cast<std::size_t>(t.n_bytes));
      fetch_(t.offset, t.n_bytes, fbuf.data());
      payload = fbuf;
    }
    CLIZ_REQUIRE(crc32c(payload) == t.crc,
                 "chunk payload CRC mismatch");

    T* tile_samples = nullptr;
    if (contiguous_dest(t)) {
      // Decode straight into the output window — the span binder enforces
      // the element count, the extent check below the actual geometry.
      const std::span<T> dst(out.data() + (t.origin[0] - origin[0]) * row,
                             tile_elems);
      const Shape got = ClizCompressor::decompress_into(payload, *lease, dst);
      CLIZ_REQUIRE(got.ndims() == nd && got.dims() == t.extent,
                   "chunk shape mismatch");
      tile_samples = dst.data();
    } else {
      auto& sbuf = lease->template slab<T>();
      sbuf.resize(tile_elems);
      const Shape got = ClizCompressor::decompress_into(
          payload, *lease, std::span<T>(sbuf.data(), sbuf.size()));
      CLIZ_REQUIRE(got.ndims() == nd && got.dims() == t.extent,
                   "chunk shape mismatch");
      detail::copy_tile_box(reinterpret_cast<std::uint8_t*>(sbuf.data()),
                            t.origin, t.extent,
                            reinterpret_cast<std::uint8_t*>(out.data()), origin,
                            extent, ilo, ihi, sizeof(T), /*gather=*/false);
      tile_samples = sbuf.data();
    }
    decoded.fetch_add(1, std::memory_order_relaxed);
    bytes_touched.fetch_add(t.n_bytes, std::memory_order_relaxed);

    if (options.cache != nullptr) {
      auto cached = std::make_shared<std::vector<std::uint8_t>>(
          tile_elems * sizeof(T));
      std::memcpy(cached->data(), tile_samples, cached->size());
      options.cache->insert(key, std::move(cached));
    }
  });

  st.tiles_decoded = decoded.load(std::memory_order_relaxed);
  st.tiles_from_cache = from_cache.load(std::memory_order_relaxed);
  st.compressed_bytes_touched = bytes_touched.load(std::memory_order_relaxed);
  if (options.cache != nullptr && options.scratch != nullptr) {
    // Mirror the cache's view of this call into the caller's StageStats so
    // clizc --stats (and the bench tooling) can report it without holding
    // the TileCache itself.
    StageStats& ss = options.scratch->stats;
    ss.tile_cache_hits += st.tiles_from_cache;
    ss.tile_cache_misses += st.tiles_decoded;
    ss.tile_cache_evictions += static_cast<std::size_t>(
        options.cache->stats().evictions - evictions_before);
  }
  return st;
}

template RegionStats ChunkedReader::decompress_region<float>(
    std::span<const std::size_t>, std::span<const std::size_t>,
    std::span<float>, const RegionOptions&) const;
template RegionStats ChunkedReader::decompress_region<double>(
    std::span<const std::size_t>, std::span<const std::size_t>,
    std::span<double>, const RegionOptions&) const;

}  // namespace cliz
