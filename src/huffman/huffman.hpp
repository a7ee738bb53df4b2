#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/census.hpp"

namespace cliz {

/// Canonical Huffman coder over an arbitrary alphabet of 32-bit symbols.
/// Code lengths are derived from symbol frequencies; the canonical form
/// makes the serialized table compact (lengths only) and the decoder
/// table-free. Used for quantization-bin entropy coding by every
/// prediction-based codec in the library, and twice by CliZ's multi-Huffman
/// bin classification.
class HuffmanCodec {
 public:
  HuffmanCodec() = default;

  /// Convenience: census `symbols` (a SymbolCensus for quantization-bin
  /// alphabets, sort and run-length count for wider ones), then build both
  /// the encode and the decode tables.
  static HuffmanCodec from_symbols(std::span<const std::uint32_t> symbols);

  /// Rebuilds this codec's canonical code lengths from a census (symbols
  /// strictly ascending, counts positive; cliz::Error otherwise), reusing
  /// its internal storage: CodecContext keeps one codec per Huffman group
  /// and rebuilds it every run. Handles the 0- and 1-symbol alphabets.
  /// Builds the encode side only: decode_one/decode_batch on the result
  /// throw Error (kBadArgument) until a parse() gives it a decode table.
  void rebuild_from_frequencies(std::span<const SymbolCount> census);

  /// Writes the code table (sorted symbols as deltas + code lengths).
  void serialize(ByteWriter& out) const;
  static HuffmanCodec deserialize(ByteReader& in);

  /// In-place variant of deserialize: parses into this codec, reusing its
  /// internal storage.
  void parse(ByteReader& in);

  /// Appends the codes for `symbols` to `bits`. Every symbol must be in the
  /// table (Error otherwise).
  void encode(std::span<const std::uint32_t> symbols, BitWriter& bits) const;

  /// Reads one symbol. Needs a decode table (parse() or from_symbols()).
  [[nodiscard]] std::uint32_t decode_one(BitReader& bits) const;

  /// Reads exactly `n` symbols into `out`. Semantically n decode_one calls,
  /// but the hot loop peeks once per iteration and consumes up to two
  /// symbols from the pair-augmented fast table — the dominant decode path
  /// for short codes (the common case for quantization-bin streams).
  void decode_batch(BitReader& bits, std::uint32_t* out, std::size_t n) const;

  /// Payload size implied by the table for a census (sum count * length);
  /// the lossless section coder sizes its Huffman mode with it.
  [[nodiscard]] std::uint64_t payload_bits(
      std::span<const SymbolCount> census) const;

 private:
  void build_canonical();
  void build_direct_table();
  void build_decode_table();
  void require_decode_table() const;
  /// Returns the longest of the computed lengths.
  std::uint8_t compute_code_lengths(const std::vector<std::uint64_t>& freqs,
                                    std::vector<std::uint8_t>& lengths);
  /// Encode-table lookup: the packed `(code << 6) | length` entry, or 0 when
  /// the symbol is not in the alphabet (every code is at least 1 bit long).
  [[nodiscard]] std::uint64_t find_code(std::uint32_t symbol) const;
  [[nodiscard]] std::uint32_t decode_slow(BitReader& bits) const;

  /// Width of the one-shot decode table: codes up to this length decode
  /// with a single peek; longer codes fall back to the canonical scan.
  static constexpr int kTableBits = 11;

  // Symbols sorted by (code length, symbol value) — the canonical order.
  std::vector<std::uint32_t> symbols_;
  // The alphabet in ascending symbol order — the serialization order and
  // the binary-search fallback of find_code() — with each symbol's code
  // length and encode entry `(code << 6) | length`.
  std::vector<std::uint32_t> enc_symbols_;
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint64_t> enc_codes_;
  // Direct encode lookup: direct_[s - direct_lo_] is the entry of symbol s
  // (0 = not in the alphabet) over the densest window of the alphabet whose
  // span is at most max(kDirectMinSpan, kDirectSpanPerSymbol * n). Symbols
  // outside the window (escapes far from the quantization bins, sparse
  // alphabets) take the binary search, so a rebuild costs O(n), never
  // O(span).
  static constexpr std::size_t kDirectMinSpan = 4096;
  static constexpr std::size_t kDirectSpanPerSymbol = 4;
  std::vector<std::uint64_t> direct_;
  std::uint32_t direct_lo_ = 0;
  // Canonical decode tables indexed by code length.
  std::vector<std::uint64_t> first_code_;   // first canonical code per length
  std::vector<std::uint32_t> first_index_;  // index into symbols_ per length
  std::vector<std::uint32_t> count_;        // #codes per length
  std::uint8_t max_length_ = 0;
  // Fast path: kTableBits-bit prefix -> up to two decoded symbols, packed as
  //   bits 0-7   first code length (0 = miss, fall back to the slow scan)
  //   bits 8-15  second code length (0 = no complete second code in window)
  //   bits 16-39 canonical index of the first symbol
  //   bits 40-63 canonical index of the second symbol
  // Indices fit 24 bits because the alphabet is capped at 2^24 entries.
  // Empty on a codec built from frequencies: only decoders fill it.
  std::vector<std::uint64_t> fast_table_;
  // Build-time scratch, retained across rebuilds so a codec that lives in a
  // CodecContext rebuilds with zero steady-state allocations.
  std::vector<std::uint64_t> freq_scratch_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> leaf_scratch_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> leaf_sorted_scratch_;
  std::vector<std::uint64_t> merged_scratch_;
  std::vector<std::uint32_t> parent_scratch_;
  std::vector<std::uint8_t> depth_scratch_;
};

}  // namespace cliz
