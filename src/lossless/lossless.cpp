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
// Sectioned container: the payload is cut where its content changes kind
// (a CliZ stream's header and mask, then its entropy-coded body), and each
// section is carried as its own mode 2, 3 or 4 frame. A section is
// LZ-parsed only when a scan estimates that the parse saves at least
// 1/2^kGainShift of its bytes; an entropy-coded Huffman body is estimated
// to save nothing, so it is stored without paying for the parse.
constexpr std::uint8_t kModeSectionsCrc = 6;
constexpr unsigned kGainShift = 4;
// A section shorter than this is judged worth parsing without a scan:
// carried apart, its frame heads (about ten bytes) would cost more than
// the flag bit per byte it pays inside a parsed neighbour.
constexpr std::size_t kMinJudgedSection = 64;
// Smallest section frame: length varint, mode byte, size varint, CRC and
// one payload byte. Bounds a declared section count by the bytes left.
constexpr std::size_t kMinSectionFrame = 8;
// Most bytes one frame byte can decode to: an LZ frame spends at least a
// flag bit per op of at most kMaxMatch bytes, and a block-split frame at
// least kMinSectionFrame bytes per block. Bounds a declared section size
// by its frame before the output is sized.
constexpr std::uint64_t kMaxExpansion = 8 * kMaxMatch;
static_assert(kBlockSize <= kMaxExpansion * kMinSectionFrame);

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

/// Builds the Huffman code of `bytes` into the scratch's section coder and
/// returns the coded size: serialized table plus payload.
std::size_t huffman_size(std::span<const std::uint8_t> bytes,
                         LosslessScratch& ctx) {
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
  return ctx.section_table.size() +
         static_cast<std::size_t>((payload_bits + 7) / 8);
}

/// Huffman-compresses a byte section with a raw fallback, staging through
/// the scratch buffers.
void put_section(ByteWriter& out, std::span<const std::uint8_t> bytes,
                 LosslessScratch& ctx) {
  if (bytes.size() >= 32) {
    if (huffman_size(bytes, ctx) + 8 < bytes.size()) {
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

/// Claims `n` positions of the hash table for one call, which stores
/// position p as base + p. Every entry an earlier call left is below base
/// and reads as empty; the table is cleared only on first use and when
/// base + n would pass 2^32. `n` is at most a block-split threshold.
std::uint32_t claim_epoch(LosslessScratch& ctx, std::size_t n) {
  std::uint32_t base = ctx.lz_epoch;
  if (ctx.head.size() != kHashSize || base == 0 ||
      n > std::numeric_limits<std::uint32_t>::max() - base) {
    ctx.head.assign(kHashSize, 0);
    base = 1;
  }
  ctx.lz_epoch = base + static_cast<std::uint32_t>(n);
  return base;
}

/// Whether LZ-parsing `in` (at most one block-split threshold of bytes)
/// should beat storing it, judged without a parse. The estimated saving is
/// the bytes a greedy single-probe match scan covers (one table entry per
/// hash4() bucket, the parse's minimum match and window, a jump past each
/// match), plus what Huffman coding of the bytes saves beyond the parse's
/// flag bit per literal. The parse is worth it when the estimate reaches
/// 1/2^kGainShift of the bytes; the Huffman pass runs only when the
/// matches alone fall short.
bool worth_parsing(std::span<const std::uint8_t> in, LosslessScratch& ctx) {
  const std::size_t n = in.size();
  const std::size_t enough =
      (n + (std::size_t{1} << kGainShift) - 1) >> kGainShift;
  std::size_t covered = 0;
  if (n >= kMinMatch) {
    const std::uint32_t base = claim_epoch(ctx, n);
    std::uint32_t* const head = ctx.head.data();
    const std::uint8_t* const src = in.data();
    std::size_t i = 0;
    while (i + kMinMatch <= n) {
      const std::uint32_t h = hash4(src + i);
      const std::uint32_t cand = head[h];
      head[h] = base + static_cast<std::uint32_t>(i);
      if (cand >= base && i - (cand - base) <= kWindow) {
        const std::size_t len = match_length(src + (cand - base), src + i,
                                             std::min(kMaxMatch, n - i));
        if (len >= kMinMatch) {
          covered += len;
          if (covered >= enough) return true;
          i += len;
          continue;
        }
      }
      ++i;
    }
  }
  // covered + (n - huffman) - n/8 >= enough, in eighths of a byte.
  return 8 * (covered + n) >= 8 * (enough + huffman_size(in, ctx)) + n;
}

/// LEB128 length of `v`.
std::size_t varint_size(std::uint64_t v) {
  std::size_t k = 1;
  for (; v >= 0x80; v >>= 7) ++k;
  return k;
}

/// Size of the stored frame (mode 2) of `n` bytes.
std::size_t stored_size(std::size_t n) {
  return 1 + varint_size(n) + sizeof(std::uint32_t) + n;
}

/// Appends `in` as a stored frame (mode 2) whose CRC32C is `crc`.
void put_stored(ByteWriter& out, std::span<const std::uint8_t> in,
                std::uint32_t crc) {
  out.put_u8(kModeStoredCrc);
  out.put_varint(in.size());
  out.put(crc);
  out.put_bytes(in);
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
    const std::uint32_t base = claim_epoch(ctx, n);
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
  put_stored(stored, in, payload_crc);
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

/// A frame's fixed head: mode byte, declared size and payload CRC.
struct FrameHead {
  std::uint8_t mode = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Reads the head of a top-level frame. Retired modes are refused on the
/// mode byte, and a declared size past the output budget before anything
/// is sized from it.
FrameHead read_head(ByteReader& r, const ResourceLimits& limits) {
  FrameHead h;
  h.mode = r.get_u8();
  // Modes 0 and 1 (v1, no CRC) and 5 (RLE) are retired: refused before
  // anything is sized from the frame.
  CLIZ_REQUIRE_CODE(h.mode != 0 && h.mode != 1 && h.mode != 5, kUnsupported,
                    "retired lossless mode " + std::to_string(h.mode) +
                        (h.mode == 5 ? " (RLE)" : " (v1, no CRC)") +
                        " is no longer decodable");
  CLIZ_REQUIRE((h.mode >= kModeStoredCrc && h.mode <= kModeBlocksCrc) ||
                   h.mode == kModeSectionsCrc,
               "corrupt lossless mode byte");
  h.size = r.get_varint();
  // Governor: every mode sizes its output from this declaration before a
  // single payload byte is decoded.
  CLIZ_REQUIRE_CODE(h.size <= limits.max_output_bytes, kLimitExceeded,
                    "declared lossless size exceeds "
                    "ResourceLimits::max_output_bytes");
  h.crc = r.get<std::uint32_t>();
  return h;
}

/// Reads the head of a frame nested in a block-split or sectioned frame
/// (`outer`). A block is a mode 2 or 3 frame; a section may also be
/// block-split, but is never sectioned again. The caller checks the size
/// against the outer frame's.
FrameHead read_nested_head(ByteReader& r, std::uint8_t outer) {
  FrameHead h;
  h.mode = r.get_u8();
  if (outer == kModeBlocksCrc) {
    CLIZ_REQUIRE(h.mode == kModeStoredCrc || h.mode == kModeLzCrc,
                 "corrupt nested lossless block mode");
  } else {
    CLIZ_REQUIRE(h.mode != kModeSectionsCrc,
                 "nested sectioned lossless frame");
    CLIZ_REQUIRE(h.mode >= kModeStoredCrc && h.mode <= kModeBlocksCrc,
                 "corrupt lossless section mode");
  }
  h.size = r.get_varint();
  h.crc = r.get<std::uint32_t>();
  return h;
}

/// Reads a sectioned frame's section count and every section's frame and
/// head into `spans` (and `info`, when given). Refuses a zero count, an
/// empty or nested-sectioned section, a section size past what its frame
/// can decode to, and sizes that do not sum to the frame's declared `n`
/// -- all before the output is sized.
void parse_sections(ByteReader& r, std::uint64_t n,
                    std::vector<std::span<const std::uint8_t>>& spans,
                    std::vector<LosslessSectionInfo>* info) {
  const std::uint64_t n_sections = r.get_varint();
  CLIZ_REQUIRE(n_sections >= 1, "sectioned lossless frame has no sections");
  CLIZ_REQUIRE(n_sections <= r.remaining() / kMinSectionFrame,
               "lossless section count exceeds the frame");
  spans.clear();
  std::uint64_t total = 0;
  for (std::uint64_t k = 0; k < n_sections; ++k) {
    const auto frame = r.get_block();
    ByteReader hdr(frame);
    const FrameHead h = read_nested_head(hdr, kModeSectionsCrc);
    CLIZ_REQUIRE(h.size >= 1 && h.size <= n - total,
                 "lossless section sizes exceed the declared size");
    CLIZ_REQUIRE(h.size <= (h.mode == kModeStoredCrc
                                ? std::uint64_t{hdr.remaining()}
                                : kMaxExpansion * frame.size()),
                 "lossless section size exceeds what its frame holds");
    total += h.size;
    spans.push_back(frame);
    if (info != nullptr) info->push_back({h.mode, h.size, frame.size()});
  }
  CLIZ_REQUIRE(total == n,
               "lossless section sizes do not sum to the declared size");
}

/// Where a frame body decodes to: a vector sized once the body's own
/// fields are validated (`grow`), or `at`, already sized by an enclosing
/// frame.
struct Dest {
  std::vector<std::uint8_t>* grow = nullptr;
  std::uint8_t* at = nullptr;
  std::uint8_t* bind(std::uint64_t n) const {
    if (grow == nullptr) return at;
    grow->resize(static_cast<std::size_t>(n));
    return grow->data();
  }
};

/// Decodes the body of a frame whose head `h` was just read from `r` into
/// h.size bytes at `dest`, and checks the body's CRC.
void decode_body(const FrameHead& h, ByteReader& r, LosslessScratch& ctx,
                 const ResourceLimits& limits, Dest dest) {
  const std::uint64_t n = h.size;
  if (h.mode == kModeStoredCrc) {
    const auto b = r.get_bytes(static_cast<std::size_t>(n));
    CLIZ_REQUIRE(crc32c(b) == h.crc, "lossless payload CRC mismatch (stored)");
    std::uint8_t* const out = dest.bind(n);
    if (n != 0) std::memcpy(out, b.data(), b.size());
    return;
  }
  if (h.mode == kModeSectionsCrc) {
    auto& spans = ctx.section_spans;
    parse_sections(r, n, spans, nullptr);
    std::uint8_t* const out = dest.bind(n);
    std::size_t off = 0;
    for (const auto frame : spans) {
      ByteReader sr(frame);
      const FrameHead sh = read_nested_head(sr, kModeSectionsCrc);
      decode_body(sh, sr, ctx, limits, Dest{nullptr, out + off});
      off += static_cast<std::size_t>(sh.size);
    }
    CLIZ_REQUIRE(crc32c({out, static_cast<std::size_t>(n)}) == h.crc,
                 "lossless payload CRC mismatch (sections)");
    return;
  }
  if (h.mode == kModeBlocksCrc) {
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
      const FrameHead bh = read_nested_head(hdr, kModeBlocksCrc);
      const std::uint64_t expect =
          std::min<std::uint64_t>(kBlockSize, n - b * kBlockSize);
      CLIZ_REQUIRE(bh.size == expect, "corrupt lossless block size");
    }
    reserve_block_scratch(ctx, 0);
    std::uint8_t* const out = dest.bind(n);
    ErrorLatch latch;
    parallel_for(0, frames.size(), 2, [&](std::size_t b) {
      latch.run([&] {
        ByteReader br(frames[b]);
        const FrameHead bh = read_nested_head(br, kModeBlocksCrc);
        decode_body(
            bh, br,
            *ctx.block_scratch[static_cast<std::size_t>(thread_index())],
            limits, Dest{nullptr, out + b * kBlockSize});
      });
    });
    latch.rethrow_if_failed();
    CLIZ_REQUIRE(crc32c({out, static_cast<std::size_t>(n)}) == h.crc,
                 "lossless payload CRC mismatch (blocks)");
    return;
  }
  // kModeLzCrc: LZ77 ops over the literal and match sections. Each op
  // yields at most kMaxMatch bytes and takes one flag bit, which bounds
  // the declared size before the output is sized for it.
  const std::uint64_t n_ops = r.get_varint();
  const auto flag_bytes = r.get_block();
  CLIZ_REQUIRE(n_ops <= 8 * std::uint64_t{flag_bytes.size()} &&
                   n <= n_ops * kMaxMatch,
               "lossless op count does not cover the declared size");
  BitReader flags(flag_bytes);
  get_section(r, ctx, ctx.dec_literals);
  get_section(r, ctx, ctx.dec_matches);  // must outlive the reader below
  const auto& literals = ctx.dec_literals;
  ByteReader matches(ctx.dec_matches);

  std::uint8_t* const out = dest.bind(n);
  std::size_t pos = 0;
  std::size_t lit_pos = 0;
  for (std::uint64_t op = 0; op < n_ops; ++op) {
    if (flags.get_bit()) {
      const std::uint64_t len = matches.get_varint() + kMinMatch;
      const std::uint64_t dist = matches.get_varint() + 1;
      CLIZ_REQUIRE(dist <= pos, "match distance beyond output");
      CLIZ_REQUIRE(len <= n - pos, "match overruns declared size");
      // Byte by byte: a match may overlap the bytes it produces.
      const std::uint8_t* src = out + (pos - static_cast<std::size_t>(dist));
      std::uint8_t* dst = out + pos;
      for (std::uint64_t k = 0; k < len; ++k) dst[k] = src[k];
      pos += static_cast<std::size_t>(len);
    } else {
      CLIZ_REQUIRE(lit_pos < literals.size(), "literal section truncated");
      CLIZ_REQUIRE(pos < n, "literal overruns declared size");
      out[pos++] = literals[lit_pos++];
    }
  }
  CLIZ_REQUIRE(pos == n, "lossless size mismatch after decode");
  CLIZ_REQUIRE(crc32c({out, static_cast<std::size_t>(n)}) == h.crc,
               "lossless payload CRC mismatch");
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

void lossless_compress_sections_into(std::span<const std::uint8_t> in,
                                     std::span<const std::size_t> cuts,
                                     LosslessScratch& ctx,
                                     std::vector<std::uint8_t>& out) {
  const std::size_t n = in.size();
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    CLIZ_REQUIRE_CODE(cuts[k] <= n && (k == 0 || cuts[k - 1] <= cuts[k]),
                      kBadArgument,
                      "lossless section cuts must ascend within the payload");
  }
  // Judge each section (a section past the block-split threshold block by
  // block, as the block-split frame would parse it) and merge neighbours
  // judged alike: the frame's sections are the runs, alternately parsed
  // and stored, starting at `starts`.
  auto& starts = ctx.section_starts;
  starts.clear();
  bool first_parsed = false;
  bool parsed = false;
  std::size_t lo = 0;
  for (std::size_t k = 0; k <= cuts.size(); ++k) {
    const std::size_t hi = k < cuts.size() ? cuts[k] : n;
    const std::size_t step =
        hi - lo < kBlockSplitThreshold ? hi - lo : kBlockSize;
    for (std::size_t u = lo; u < hi; u += step) {
      const auto unit = in.subspan(u, std::min(step, hi - u));
      const bool p =
          unit.size() < kMinJudgedSection || worth_parsing(unit, ctx);
      if (starts.empty()) first_parsed = p;
      if (starts.empty() || p != parsed) starts.push_back(u);
      parsed = p;
    }
    lo = hi;
  }
  const auto run = [&](std::size_t k) {
    const std::size_t end = k + 1 < starts.size() ? starts[k + 1] : n;
    return in.subspan(starts[k], end - starts[k]);
  };
  // One kind throughout: the whole-buffer frame, with no section heads.
  if (starts.size() <= 1 && first_parsed) {
    lossless_compress_into(in, ctx, out);
    return;
  }
  // LZ-code the parsed runs. When what they save does not pay for the
  // section heads, the payload goes out as one stored frame.
  auto& coded = ctx.section_frames;  // empty: stored without a parse
  if (coded.size() < starts.size()) coded.resize(starts.size());
  bool any_coded = false;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    coded[k].clear();
    if ((k % 2 == 0) == first_parsed) {
      lossless_compress_into(run(k), ctx, coded[k]);
      any_coded = any_coded || coded[k][0] != kModeStoredCrc;
    }
  }

  ByteWriter frame(std::move(out));
  const std::uint32_t payload_crc = crc32c(in);
  if (any_coded) {
    frame.put_u8(kModeSectionsCrc);
    frame.put_varint(n);
    frame.put(payload_crc);
    frame.put_varint(starts.size());
    for (std::size_t k = 0; k < starts.size(); ++k) {
      if (coded[k].empty()) {
        frame.put_varint(stored_size(run(k).size()));
        put_stored(frame, run(k), crc32c(run(k)));
      } else {
        frame.put_block(coded[k]);
      }
    }
  }
  if (!any_coded || frame.size() >= stored_size(n)) {
    frame.clear();
    put_stored(frame, in, payload_crc);
  }
  out = std::move(frame).take();
}

LosslessFrameInfo describe_lossless_frame(std::span<const std::uint8_t> in,
                                          const ResourceLimits& limits) {
  ByteReader r(in);
  const FrameHead h = read_head(r, limits);
  LosslessFrameInfo info;
  info.mode = h.mode;
  info.raw_bytes = h.size;
  if (h.mode == kModeSectionsCrc) {
    std::vector<std::span<const std::uint8_t>> spans;
    parse_sections(r, h.size, spans, &info.sections);
  }
  return info;
}

void lossless_decompress_into(std::span<const std::uint8_t> in,
                              LosslessScratch& ctx,
                              std::vector<std::uint8_t>& out,
                              const ResourceLimits& limits) {
  ByteReader r(in);
  const FrameHead h = read_head(r, limits);
  decode_body(h, r, ctx, limits, Dest{&out, nullptr});
}

std::vector<std::uint8_t> lossless_decompress(
    std::span<const std::uint8_t> in, const ResourceLimits& limits) {
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_decompress_into(in, scratch, out, limits);
  return out;
}

}  // namespace cliz
