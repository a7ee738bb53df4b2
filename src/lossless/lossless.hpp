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
  kLz = 0,  ///< LZ77 + Huffman with stored/block-split/sectioned modes
};

/// Reusable scratch for the lossless backend: LZ hash chains, the
/// literal/match/flag staging, and the Huffman section coder's buffers.
/// Owned by CodecContext so repeated compressions through one context do
/// not reallocate the (large) hash-chain tables. A scratch object may be
/// reused freely across calls and input sizes; it must not be shared by
/// concurrent calls.
struct LosslessScratch {
  // LZ77 hash chains over 4-byte prefixes; the sectioned frame's match
  // scan probes `head` alone under its own epoch. A call stores position p as
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
  // Sectioned frame (mode 6): where each section starts and its nested
  // frame when it is LZ-coded (empty when stored without a parse), and the
  // section frames the decoder validated before sizing its output.
  std::vector<std::size_t> section_starts;
  std::vector<std::vector<std::uint8_t>> section_frames;
  std::vector<std::span<const std::uint8_t>> section_spans;
  // Decompression staging.
  std::vector<std::uint8_t> dec_literals;
  std::vector<std::uint8_t> dec_matches;
  // Block-split mode: one nested scratch per worker thread (created
  // lazily; unique_ptr keeps the recursive member well-formed) and, for
  // compression, one staging buffer per block, so independent blocks
  // (de)compress in parallel without sharing mutable state. Decompression
  // writes each block straight into its slice of the output.
  std::vector<std::unique_ptr<LosslessScratch>> block_scratch;
  std::vector<std::vector<std::uint8_t>> block_out;
};

/// Byte-stream lossless backend (LZ77 hash-chain matching + canonical
/// Huffman), the role Zstd plays in SZ3's pipeline. Applied as the final
/// stage of every codec here; `lossless_compress` falls back to stored mode
/// when compression would not help, so output is never much larger than
/// input (small header + payload). CliZ streams use the sectioned variant,
/// lossless_compress_sections_into(); the baselines and the sections' own
/// frames use this whole-buffer writer.
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

/// Sectioned variant (mode 6): `cuts` (ascending offsets into `in`, 0 and
/// in.size() allowed) split `in` into sections, judged one by one (a
/// section of 1 MiB or more block by block) without an LZ parse: a
/// section is worth parsing when a single-probe match scan plus its
/// Huffman size estimate a saving of at least 1/16 of its bytes.
/// Neighbours judged alike merge, and each merged run becomes its own
/// mode-2/3/4 frame under one size and whole-payload CRC: a parsed run as
/// lossless_compress writes it, any other run stored without a parse.
/// When every section is worth parsing, the output is lossless_compress's
/// whole-buffer frame; when no run comes out smaller than stored, it is
/// one stored frame (mode 2). The output depends only on `in` and `cuts`,
/// never on the scratch's history or the thread count.
void lossless_compress_sections_into(std::span<const std::uint8_t> in,
                                     std::span<const std::size_t> cuts,
                                     LosslessScratch& scratch,
                                     std::vector<std::uint8_t>& out);

/// One section of a sectioned frame, as its frame header declares it.
struct LosslessSectionInfo {
  std::uint8_t mode = 0;         ///< 2 stored, 3 LZ, 4 block-split
  std::uint64_t raw_bytes = 0;   ///< decoded size
  std::uint64_t coded_bytes = 0; ///< size of the section's nested frame
};

/// What a lossless frame's headers say about it.
struct LosslessFrameInfo {
  std::uint8_t mode = 0;        ///< 2, 3, 4 or 6 (sectioned)
  std::uint64_t raw_bytes = 0;  ///< declared decoded size
  std::vector<LosslessSectionInfo> sections;  ///< mode 6 only
};

/// Reads a frame's mode, declared size and (for mode 6) every section
/// header, with the decoder's validation, without decoding any payload.
/// Throws Error where lossless_decompress would refuse the headers.
LosslessFrameInfo describe_lossless_frame(std::span<const std::uint8_t> in,
                                          const ResourceLimits& limits = {});

/// Inverse of lossless_compress and lossless_compress_sections_into.
/// Throws Error on corrupt input. The frame's declared size is checked
/// against `limits.max_output_bytes` before any buffer is sized for it
/// (kLimitExceeded past it): the unwrapped bytes are decoder output like
/// the samples they encode, so a governed caller's output budget caps them
/// too. A sectioned frame's section heads are all checked before the
/// output is sized, and each section decodes straight into it.
std::vector<std::uint8_t> lossless_decompress(
    std::span<const std::uint8_t> in, const ResourceLimits& limits = {});

/// Scratch-reusing variant of lossless_decompress.
void lossless_decompress_into(std::span<const std::uint8_t> in,
                              LosslessScratch& scratch,
                              std::vector<std::uint8_t>& out,
                              const ResourceLimits& limits = {});

}  // namespace cliz
