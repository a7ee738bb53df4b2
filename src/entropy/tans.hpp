#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/census.hpp"

namespace cliz {

/// Table-based asymmetric numeral system (tANS) coder over an arbitrary
/// alphabet of 32-bit symbols — the alternative to HuffmanCodec
/// for the quant-code entropy stage. Frequencies are normalized to sum to
/// L = 2^table_log with every present symbol getting at least one slot, so
/// the whole decode step is one table lookup plus a bit refill.
///
/// The state walks [L, 2L). Encoding runs over the symbols in REVERSE order
/// (ANS is LIFO): each step pushes its renormalization bits onto a stack,
/// and the caller writes the final state first, then pops the stack, so the
/// decoder reads the stream strictly forward through BitReader. Several
/// codecs (one per classification group) may interleave into a single state
/// and bitstream as long as they share `table_log`.
class TansCodec {
 public:
  static constexpr unsigned kMinTableLog = 5;
  /// Alphabets larger than 2^15 cannot be normalized (every symbol needs a
  /// slot); encoders fall back to Huffman above this.
  static constexpr unsigned kMaxTableLog = 15;

  TansCodec() = default;

  /// Rebuilds tables from a census (symbols strictly ascending, counts
  /// positive; cliz::Error otherwise), reusing internal storage. Returns
  /// false when the alphabet has more symbols than 2^table_log states —
  /// the caller falls back to the Huffman backend.
  bool rebuild_from_frequencies(std::span<const SymbolCount> census,
                                unsigned table_log);

  /// Writes the normalized count table (sorted symbols as deltas + counts).
  /// `table_log` itself is stream-global and serialized by the caller.
  void serialize(ByteWriter& out) const;

  /// In-place parse of a serialize()d table; validates symbol ordering and
  /// that counts sum to exactly 2^table_log. Raises cliz::Error on corrupt
  /// tables.
  void parse(ByteReader& in, unsigned table_log);

  /// One reverse-order encode step. The renormalization bits are pushed on
  /// `stack` packed as (nbits << 16) | bits; the caller pops the stack into
  /// the BitWriter after the final state. The symbol must be in the table
  /// (Error otherwise).
  void encode_symbol(std::uint32_t symbol, std::uint32_t& state,
                     std::vector<std::uint32_t>& stack) const;

  /// One forward decode step: table lookup + refill from `bits`.
  [[nodiscard]] std::uint32_t decode_symbol(std::uint32_t& state,
                                            BitReader& bits) const;

  [[nodiscard]] unsigned table_log() const noexcept { return table_log_; }

  /// Table log that fits `max_alphabet` symbols with headroom for precision,
  /// clamped to [kMinTableLog, kMaxTableLog].
  static unsigned pick_table_log(std::size_t max_alphabet);

 private:
  struct DecodeEntry {
    std::uint32_t symbol = 0;
    std::uint32_t base = 0;  // next state before refill bits are ORed in
    std::uint8_t nbits = 0;
  };

  void build_tables();
  [[nodiscard]] std::size_t find_index(std::uint32_t symbol) const;

  unsigned table_log_ = 0;
  std::uint32_t table_size_ = 0;  // L = 1 << table_log_
  std::vector<std::uint32_t> symbols_;  // sorted ascending
  std::vector<std::uint32_t> norm_;     // normalized counts, parallel
  std::vector<std::uint32_t> cum_;      // exclusive prefix sums, parallel
  std::vector<DecodeEntry> decode_;     // L entries (identity spread)
  // Build-time scratch, retained across rebuilds for steady-state reuse.
  std::vector<std::uint32_t> order_scratch_;
};

}  // namespace cliz
