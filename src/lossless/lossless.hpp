#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/governor.hpp"
#include "src/huffman/huffman.hpp"

namespace cliz {

/// Lossless-stage backend. LZ is the only one: the enum survives as the
/// type of ClizOptions::lossless and AutotuneResult::best_lossless, which
/// existing callers assign.
enum class LosslessBackend : std::uint8_t {
  kLz = 0,  ///< LZ77 + Huffman with stored/block-split modes
};

/// Reusable scratch for the lossless backend: LZ hash chains, the
/// literal/match/flag staging, and the Huffman section coder's buffers.
/// Owned by CodecContext so repeated compressions through one context do
/// not reallocate the (large) hash-chain tables. A scratch object may be
/// reused freely across calls and input sizes; it must not be shared by
/// concurrent calls.
struct LosslessScratch {
  // LZ77 hash chains over 4-byte prefixes. A call stores position p as
  // `lz_epoch + p` and then advances lz_epoch past its last position, so
  // every entry below the current lz_epoch reads as empty and `head` is
  // cleared only on first use, when lz_epoch is 0, or when it would pass
  // 2^32. lz_epoch may be raised between calls but never lowered. `prev`
  // is a ring of one window: a chain step never follows a position more
  // than one window back, so its slot has not yet been reused.
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> prev;
  std::uint32_t lz_epoch = 0;
  // Parse output staging.
  BitWriter flags;
  std::vector<std::uint8_t> literals;
  ByteWriter matches;
  // Assembled containers (LZ mode and stored fallback).
  ByteWriter lz;
  ByteWriter stored;
  // Section coder staging (Huffman-over-bytes with raw fallback).
  std::vector<std::uint32_t> section_symbols;
  std::vector<SymbolCount> section_freq;
  HuffmanCodec section_codec;
  ByteWriter section_table;
  BitWriter section_bits;
  // Decompression staging.
  std::vector<std::uint8_t> dec_literals;
  std::vector<std::uint8_t> dec_matches;
  // Block-split mode: one nested scratch per worker thread (created
  // lazily; unique_ptr keeps the recursive member well-formed) and one
  // staging buffer per block, so independent blocks (de)compress in
  // parallel without sharing mutable state.
  std::vector<std::unique_ptr<LosslessScratch>> block_scratch;
  std::vector<std::vector<std::uint8_t>> block_out;
};

/// Byte-stream lossless backend (LZ77 hash-chain matching + canonical
/// Huffman), the role Zstd plays in SZ3's pipeline. Applied as the final
/// stage of every codec here; `lossless_compress` falls back to stored mode
/// when compression would not help, so output is never much larger than
/// input (small header + payload).
///
/// The container is versioned by its mode byte. Every decodable mode
/// carries a CRC32C of the uncompressed payload that decompression
/// verifies, so a corrupted frame that slips past the structural checks is
/// still rejected with cliz::Error. The retired modes (0 and 1 without a
/// CRC, 5 RLE) are refused with ErrorCode::kUnsupported. See
/// docs/FORMAT.md.
std::vector<std::uint8_t> lossless_compress(std::span<const std::uint8_t> in);

/// Scratch-reusing variant: compresses `in` into `out` (replaced, capacity
/// reused) with all transient state drawn from `scratch`. Output is
/// byte-identical to lossless_compress().
void lossless_compress_into(std::span<const std::uint8_t> in,
                            LosslessScratch& scratch,
                            std::vector<std::uint8_t>& out);

/// Inverse of lossless_compress. Throws Error on corrupt input. The frame's
/// declared size is checked against `limits.max_output_bytes` before any
/// buffer is sized for it (kLimitExceeded past it): the unwrapped bytes
/// are decoder output like the samples they encode, so a governed caller's
/// output budget caps them too.
std::vector<std::uint8_t> lossless_decompress(
    std::span<const std::uint8_t> in, const ResourceLimits& limits = {});

/// Scratch-reusing variant of lossless_decompress.
void lossless_decompress_into(std::span<const std::uint8_t> in,
                              LosslessScratch& scratch,
                              std::vector<std::uint8_t>& out,
                              const ResourceLimits& limits = {});

}  // namespace cliz
