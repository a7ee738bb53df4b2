#include "src/lossless/lossless.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/status.hpp"

namespace cliz {

namespace {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kRingMask = kWindow - 1;  // `prev` ring index
constexpr std::size_t kHashSize = 1u << 16;     // hash4() buckets
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1u << 12;
constexpr int kMaxChain = 64;

// Every written mode carries a CRC32C of the *uncompressed* payload
// between the size varint and the body, so any corruption of the container
// that survives the structural checks is still caught before the decoded
// bytes reach a consumer.
constexpr std::uint8_t kModeStoredCrc = 2;
constexpr std::uint8_t kModeLzCrc = 3;
// Block-split container: the payload is cut into fixed-size blocks, each
// carried as an independent single-block frame (mode 2 or 3), so blocks
// (de)compress on separate threads. The split is purely size-driven — the
// same bytes go out for every thread count.
constexpr std::uint8_t kModeBlocksCrc = 4;
constexpr std::size_t kBlockSize = std::size_t{1} << 18;
constexpr std::size_t kBlockSplitThreshold = std::size_t{1} << 20;

// Section sub-modes for huff_bytes().
constexpr std::uint8_t kSectionRaw = 0;
constexpr std::uint8_t kSectionHuff = 1;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> 16;  // Knuth multiplicative, 16-bit bucket
}

/// Length of the common prefix of `a` and `b`, capped at `limit`; compares
/// 8 bytes per step and locates the first differing byte of a word from
/// its XOR.
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + static_cast<std::size_t>(std::countr_zero(diff)) / 8;
      } else {
        return len + static_cast<std::size_t>(std::countl_zero(diff)) / 8;
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Huffman-compresses a byte section with a raw fallback, staging through
/// the scratch buffers.
void put_section(ByteWriter& out, std::span<const std::uint8_t> bytes,
                 LosslessScratch& ctx) {
  if (bytes.size() >= 32) {
    std::array<std::uint64_t, 256> census{};
    for (const std::uint8_t b : bytes) ++census[b];
    ctx.section_freq.clear();
    for (std::uint32_t b = 0; b < census.size(); ++b) {
      if (census[b] != 0) ctx.section_freq.push_back({b, census[b]});
    }
    ctx.section_codec.rebuild_from_frequencies(ctx.section_freq);
    ctx.section_table.clear();
    ctx.section_codec.serialize(ctx.section_table);
    const std::uint64_t payload_bits =
        ctx.section_codec.payload_bits(ctx.section_freq);
    const std::size_t huff_size =
        ctx.section_table.size() + (payload_bits + 7) / 8;
    if (huff_size + 8 < bytes.size()) {
      ctx.section_symbols.assign(bytes.begin(), bytes.end());
      ctx.section_bits.reset();
      ctx.section_codec.encode(ctx.section_symbols, ctx.section_bits);
      out.put_u8(kSectionHuff);
      out.put_varint(bytes.size());
      out.put_block(ctx.section_table.bytes());
      out.put_block(ctx.section_bits.finish_view());
      return;
    }
  }
  out.put_u8(kSectionRaw);
  out.put_block(bytes);
}

/// Reads one section into `out` (replaced).
void get_section(ByteReader& in, LosslessScratch& ctx,
                 std::vector<std::uint8_t>& out) {
  const std::uint8_t mode = in.get_u8();
  if (mode == kSectionRaw) {
    auto b = in.get_block();
    out.assign(b.begin(), b.end());
    return;
  }
  CLIZ_REQUIRE(mode == kSectionHuff, "corrupt lossless section mode");
  const std::uint64_t n = in.get_varint();
  ByteReader table_reader(in.get_block());
  const auto payload = in.get_block();
  // Every Huffman code is at least 1 bit long, so a section holds at most
  // 8 symbols per payload byte; refuse a larger count before sizing any
  // buffer for it.
  CLIZ_REQUIRE(n <= 8 * std::uint64_t{payload.size()},
               "lossless section count exceeds its payload");
  ctx.section_codec.parse(table_reader);
  BitReader bits(payload);
  auto& symbols = ctx.section_symbols;
  symbols.resize(static_cast<std::size_t>(n));
  ctx.section_codec.decode_batch(bits, symbols.data(), symbols.size());
  out.resize(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(symbols[i]);
  }
}

/// Compresses `in` as one single-block frame (mode 2 or 3) into `out`.
void compress_single_into(std::span<const std::uint8_t> in,
                          LosslessScratch& ctx,
                          std::vector<std::uint8_t>& out) {
  const std::size_t n = in.size();
  const std::uint32_t payload_crc = crc32c(in);

  // LZ77 greedy parse with hash chains over 4-byte prefixes.
  ctx.flags.reset();            // 0 = literal, 1 = match
  ctx.literals.clear();
  ctx.matches.clear();          // varint(len - kMinMatch), varint(dist - 1)
  std::size_t n_ops = 0;

  if (n >= kMinMatch) {
    // This call's positions are stored as base + pos. Every entry an
    // earlier call left is below base and reads as empty; the table is
    // cleared only on first use and when base + n would pass 2^32.
    std::uint32_t base = ctx.lz_epoch;
    if (ctx.head.size() != kHashSize || base == 0 ||
        n > std::numeric_limits<std::uint32_t>::max() - base) {
      ctx.head.assign(kHashSize, 0);
      base = 1;
    }
    ctx.lz_epoch = base + static_cast<std::uint32_t>(n);
    // The ring is never cleared: a slot is read only for a position
    // inserted by this call, within one window of the search, and the next
    // write to that slot is one window later.
    if (ctx.prev.size() != kWindow) ctx.prev.assign(kWindow, 0);
    auto& head = ctx.head;
    auto& prev = ctx.prev;
    const std::uint8_t* const src = in.data();

    std::size_t i = 0;
    const auto insert = [&](std::size_t pos) {
      const std::uint32_t h = hash4(src + pos);
      prev[pos & kRingMask] = head[h];
      head[h] = base + static_cast<std::uint32_t>(pos);
    };

    while (i < n) {
      std::size_t best_len = 0;
      std::size_t best_dist = 0;
      if (i + kMinMatch <= n) {
        const std::uint32_t h = hash4(src + i);
        std::uint32_t cand = head[h];
        int chain = 0;
        const std::size_t limit = std::min(kMaxMatch, n - i);
        while (cand >= base && chain++ < kMaxChain) {
          const std::size_t c = cand - base;
          if (i - c > kWindow) break;
          // A candidate that differs at byte best_len cannot beat the
          // best match, so only the others are measured.
          if (src[c + best_len] == src[i + best_len]) {
            const std::size_t len = match_length(src + c, src + i, limit);
            if (len > best_len) {
              best_len = len;
              best_dist = i - c;
              if (len == limit) break;
            }
          }
          cand = prev[c & kRingMask];
        }
      }

      if (best_len >= kMinMatch) {
        ctx.flags.put_bit(true);
        ctx.matches.put_varint(best_len - kMinMatch);
        ctx.matches.put_varint(best_dist - 1);
        const std::size_t end = std::min(i + best_len, n - kMinMatch + 1);
        for (std::size_t p = i; p < end; ++p) insert(p);
        i += best_len;
      } else {
        ctx.flags.put_bit(false);
        ctx.literals.push_back(in[i]);
        if (i + kMinMatch <= n) insert(i);
        ++i;
      }
      ++n_ops;
    }
  } else {
    for (const std::uint8_t b : in) {
      ctx.flags.put_bit(false);
      ctx.literals.push_back(b);
      ++n_ops;
    }
  }

  ByteWriter& lz = ctx.lz;
  lz.clear();
  lz.put_u8(kModeLzCrc);
  lz.put_varint(n);
  lz.put(payload_crc);
  lz.put_varint(n_ops);
  lz.put_block(ctx.flags.finish_view());
  put_section(lz, ctx.literals, ctx);
  put_section(lz, ctx.matches.bytes(), ctx);

  // LZ is kept when it is smaller than the stored frame: mode byte, size
  // varint (counted as one byte), CRC and payload.
  if (lz.size() < n + 2 + sizeof(payload_crc)) {
    out.assign(lz.bytes().begin(), lz.bytes().end());
    return;
  }

  // Stored fallback: incompressible input.
  ByteWriter& stored = ctx.stored;
  stored.clear();
  stored.put_u8(kModeStoredCrc);
  stored.put_varint(n);
  stored.put(payload_crc);
  stored.put_bytes(in);
  out.assign(stored.bytes().begin(), stored.bytes().end());
}

/// Grows the per-worker nested scratch pool to the current thread count and
/// the per-block staging to `n_blocks`.
void reserve_block_scratch(LosslessScratch& ctx, std::size_t n_blocks) {
  const auto workers =
      static_cast<std::size_t>(std::max(1, hardware_threads()));
  if (ctx.block_scratch.size() < workers) ctx.block_scratch.resize(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    if (!ctx.block_scratch[w]) {
      ctx.block_scratch[w] = std::make_unique<LosslessScratch>();
    }
  }
  if (ctx.block_out.size() < n_blocks) ctx.block_out.resize(n_blocks);
}

}  // namespace

void lossless_compress_into(std::span<const std::uint8_t> in,
                            LosslessScratch& ctx,
                            std::vector<std::uint8_t>& out) {
  const std::size_t n = in.size();
  if (n < kBlockSplitThreshold) {
    compress_single_into(in, ctx, out);
    return;
  }

  // Block-split path: fixed-size blocks compressed independently. Each
  // worker compresses through its own nested scratch into per-block
  // staging, then the frames are concatenated in block order — the output
  // depends only on the input bytes, never on the thread count.
  const std::size_t n_blocks = (n + kBlockSize - 1) / kBlockSize;
  reserve_block_scratch(ctx, n_blocks);
  ErrorLatch latch;
  parallel_for(0, n_blocks, 2, [&](std::size_t b) {
    latch.run([&] {
      const std::size_t lo = b * kBlockSize;
      const std::size_t len = std::min(kBlockSize, n - lo);
      compress_single_into(in.subspan(lo, len),
                           *ctx.block_scratch[static_cast<std::size_t>(
                               thread_index())],
                           ctx.block_out[b]);
    });
  });
  latch.rethrow_if_failed();

  ByteWriter& frame = ctx.lz;
  frame.clear();
  frame.put_u8(kModeBlocksCrc);
  frame.put_varint(n);
  frame.put(crc32c(in));
  frame.put_varint(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    frame.put_block(ctx.block_out[b]);
  }
  out.assign(frame.bytes().begin(), frame.bytes().end());
}

std::vector<std::uint8_t> lossless_compress(std::span<const std::uint8_t> in) {
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_compress_into(in, scratch, out);
  return out;
}

void lossless_decompress_into(std::span<const std::uint8_t> in,
                              LosslessScratch& ctx,
                              std::vector<std::uint8_t>& out,
                              const ResourceLimits& limits) {
  ByteReader r(in);
  const std::uint8_t mode = r.get_u8();
  // Modes 0 and 1 (v1, no CRC) and 5 (RLE) are retired: refused before
  // anything is sized from the frame.
  CLIZ_REQUIRE_CODE(mode != 0 && mode != 1 && mode != 5, kUnsupported,
                    "retired lossless mode " + std::to_string(mode) +
                        (mode == 5 ? " (RLE)" : " (v1, no CRC)") +
                        " is no longer decodable");
  CLIZ_REQUIRE(mode >= kModeStoredCrc && mode <= kModeBlocksCrc,
               "corrupt lossless mode byte");
  const std::uint64_t n = r.get_varint();
  // Governor: the LZ and block modes size `out` from this declaration
  // before a single payload byte is decoded.
  CLIZ_REQUIRE_CODE(n <= limits.max_output_bytes, kLimitExceeded,
                    "declared lossless size exceeds "
                    "ResourceLimits::max_output_bytes");
  const auto expected_crc = r.get<std::uint32_t>();

  if (mode == kModeStoredCrc) {
    auto b = r.get_bytes(static_cast<std::size_t>(n));
    CLIZ_REQUIRE(crc32c(b) == expected_crc,
                 "lossless payload CRC mismatch (stored)");
    out.assign(b.begin(), b.end());
    return;
  }
  if (mode == kModeBlocksCrc) {
    const std::uint64_t n_blocks = r.get_varint();
    CLIZ_REQUIRE(n_blocks == (n + kBlockSize - 1) / kBlockSize,
                 "corrupt lossless block count");
    // Parse the block frames serially — headers must be validated before
    // any worker touches them, so no Error can surface inside the parallel
    // region below without the latch.
    std::vector<std::span<const std::uint8_t>> frames(
        static_cast<std::size_t>(n_blocks));
    for (std::uint64_t b = 0; b < n_blocks; ++b) {
      frames[b] = r.get_block();
      ByteReader hdr(frames[b]);
      const std::uint8_t inner = hdr.get_u8();
      CLIZ_REQUIRE(inner >= kModeStoredCrc && inner <= kModeLzCrc,
                   "corrupt nested lossless block mode");
      const std::uint64_t inner_n = hdr.get_varint();
      const std::uint64_t expect =
          std::min<std::uint64_t>(kBlockSize, n - b * kBlockSize);
      CLIZ_REQUIRE(inner_n == expect, "corrupt lossless block size");
    }
    reserve_block_scratch(ctx, frames.size());
    out.resize(static_cast<std::size_t>(n));
    ErrorLatch latch;
    parallel_for(0, frames.size(), 2, [&](std::size_t b) {
      latch.run([&] {
        auto& staging = ctx.block_out[b];
        lossless_decompress_into(
            frames[b],
            *ctx.block_scratch[static_cast<std::size_t>(thread_index())],
            staging, limits);
        std::memcpy(out.data() + b * kBlockSize, staging.data(),
                    staging.size());
      });
    });
    latch.rethrow_if_failed();
    CLIZ_REQUIRE(crc32c(out) == expected_crc,
                 "lossless payload CRC mismatch (blocks)");
    return;
  }
  // kModeLzCrc: LZ77 ops over the literal and match sections.
  const std::uint64_t n_ops = r.get_varint();
  BitReader flags(r.get_block());
  get_section(r, ctx, ctx.dec_literals);
  get_section(r, ctx, ctx.dec_matches);  // must outlive the reader below
  const auto& literals = ctx.dec_literals;
  ByteReader matches(ctx.dec_matches);

  out.clear();
  out.reserve(static_cast<std::size_t>(n));
  std::size_t lit_pos = 0;
  for (std::uint64_t op = 0; op < n_ops; ++op) {
    if (flags.get_bit()) {
      const std::uint64_t len = matches.get_varint() + kMinMatch;
      const std::uint64_t dist = matches.get_varint() + 1;
      CLIZ_REQUIRE(dist <= out.size(), "match distance beyond output");
      CLIZ_REQUIRE(out.size() + len <= n, "match overruns declared size");
      const std::size_t start = out.size() - static_cast<std::size_t>(dist);
      for (std::uint64_t k = 0; k < len; ++k) {
        out.push_back(out[start + static_cast<std::size_t>(k)]);
      }
    } else {
      CLIZ_REQUIRE(lit_pos < literals.size(), "literal section truncated");
      out.push_back(literals[lit_pos++]);
    }
  }
  CLIZ_REQUIRE(out.size() == n, "lossless size mismatch after decode");
  CLIZ_REQUIRE(crc32c(out) == expected_crc, "lossless payload CRC mismatch");
}

std::vector<std::uint8_t> lossless_decompress(
    std::span<const std::uint8_t> in, const ResourceLimits& limits) {
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_decompress_into(in, scratch, out, limits);
  return out;
}

}  // namespace cliz
