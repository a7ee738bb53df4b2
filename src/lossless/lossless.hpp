#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/governor.hpp"
#include "src/huffman/huffman.hpp"

namespace cliz {

/// Lossless-stage backends. The selection is recorded implicitly by the
/// frame's mode byte (kStore writes RLE mode 5 or stored mode 2), so any
/// reader decodes any frame regardless of the encoder's choice.
enum class LosslessBackend : std::uint8_t {
  kLz = 0,     ///< LZ77 + Huffman with stored/block-split modes (default)
  kStore = 1,  ///< store/RLE fast path for already-high-entropy payloads
};

inline const char* lossless_backend_name(LosslessBackend backend) {
  switch (backend) {
    case LosslessBackend::kLz:
      return "lz";
    case LosslessBackend::kStore:
      return "store";
  }
  return "unknown";
}

inline std::optional<LosslessBackend> parse_lossless_backend(
    std::string_view name) {
  if (name == "lz") return LosslessBackend::kLz;
  if (name == "store") return LosslessBackend::kStore;
  return std::nullopt;
}

/// Reusable scratch for the lossless backend: LZ hash chains, the
/// literal/match/flag staging, and the Huffman section coder's buffers.
/// Owned by CodecContext so repeated compressions through one context do
/// not reallocate the (large) hash-chain tables. A scratch object may be
/// reused freely across calls and input sizes; it must not be shared by
/// concurrent calls.
struct LosslessScratch {
  // LZ77 hash chains over 4-byte prefixes.
  std::vector<std::int64_t> head;
  std::vector<std::int64_t> prev;
  // Parse output staging.
  BitWriter flags;
  std::vector<std::uint8_t> literals;
  ByteWriter matches;
  // Assembled containers (LZ mode and stored fallback).
  ByteWriter lz;
  ByteWriter stored;
  // Section coder staging (Huffman-over-bytes with raw fallback).
  std::vector<std::uint32_t> section_symbols;
  std::unordered_map<std::uint32_t, std::uint64_t> section_freq;
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
/// The container is versioned by its mode byte: v2 modes (the only ones
/// written) carry a CRC32C of the uncompressed payload that decompression
/// verifies, so a corrupted frame that slips past the structural checks is
/// still rejected with cliz::Error. v1 (checksum-less) modes remain
/// readable. See docs/FORMAT.md.
std::vector<std::uint8_t> lossless_compress(
    std::span<const std::uint8_t> in,
    LosslessBackend backend = LosslessBackend::kLz);

/// Scratch-reusing variant: compresses `in` into `out` (replaced, capacity
/// reused) with all transient state drawn from `scratch`. Output is
/// byte-identical to lossless_compress(). With LosslessBackend::kStore the
/// frame is byte-level RLE (mode 5) when runs pay for themselves, stored
/// (mode 2) otherwise — never LZ-parsed or block-split, trading ratio for
/// near-memcpy speed on high-entropy payloads.
void lossless_compress_into(std::span<const std::uint8_t> in,
                            LosslessScratch& scratch,
                            std::vector<std::uint8_t>& out,
                            LosslessBackend backend = LosslessBackend::kLz);

/// Backend implied by a frame's mode byte: RLE frames read as kStore;
/// everything else — including the stored fallback both backends share —
/// reads as kLz. Telemetry only; decoding never needs the distinction.
[[nodiscard]] LosslessBackend lossless_frame_backend(
    std::span<const std::uint8_t> frame);

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
