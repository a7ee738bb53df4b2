#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/status.hpp"

namespace cliz {

/// MSB-first bit sink used by the Huffman coders and bit-plane coders.
class BitWriter {
 public:
  void put_bit(bool b) {
    acc_ = (acc_ << 1) | static_cast<std::uint64_t>(b);
    if (++nbits_ == 64) flush_word();
  }

  /// Writes the low `n` bits of `v` (n in [0, 64]), most significant of
  /// those first; bits of `v` above `n` are ignored. The accumulator holds
  /// exactly `nbits_` < 64 bits, so one call fills it at most once.
  void put_bits(std::uint64_t v, int n) {
    if (n == 0) return;
    const auto un = static_cast<unsigned>(n);
    if (un < 64) v &= (std::uint64_t{1} << un) - 1;
    const unsigned room = 64 - nbits_;
    if (un < room) {
      acc_ = (acc_ << un) | v;
      nbits_ += un;
      return;
    }
    // The top `room` bits of the field complete the word; the rest start
    // the next one. room == 64 only when the accumulator is empty.
    const unsigned rest = un - room;
    acc_ = (room == 64 ? 0 : acc_ << room) | (v >> rest);
    flush_word();
    acc_ = v & ((std::uint64_t{1} << rest) - 1);  // rest <= 63
    nbits_ = rest;
  }

  /// Pads to a byte boundary and returns the assembled buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish() {
    (void)finish_view();
    return std::move(out_);
  }

  /// Pads to a byte boundary like finish(), but the buffer stays owned by
  /// the writer so reset() can reuse its capacity (CodecContext steady-state
  /// reuse). The view is valid until the next mutating call.
  [[nodiscard]] std::span<const std::uint8_t> finish_view() {
    while (nbits_ % 8 != 0) put_bit(false);
    if (nbits_ > 0) {
      for (int i = static_cast<int>(nbits_) - 8; i >= 0; i -= 8) {
        out_.push_back(static_cast<std::uint8_t>(acc_ >> i));
      }
      acc_ = 0;
      nbits_ = 0;
    }
    return out_;
  }

  /// Drops all written bits, keeping the buffer capacity.
  void reset() {
    out_.clear();
    acc_ = 0;
    nbits_ = 0;
  }

  [[nodiscard]] std::size_t bit_count() const noexcept {
    return out_.size() * 8 + nbits_;
  }

 private:
  void flush_word() {
    std::uint64_t be = acc_;
    if constexpr (std::endian::native == std::endian::little) {
      be = __builtin_bswap64(be);
    }
    const std::size_t at = out_.size();
    out_.resize(at + 8);
    std::memcpy(out_.data() + at, &be, 8);
    acc_ = 0;
    nbits_ = 0;
  }

  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;
  unsigned nbits_ = 0;
};

/// MSB-first bit source; bounds-checked like ByteReader.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool get_bit() {
    CLIZ_REQUIRE(bitpos_ < data_.size() * 8, "bitstream truncated");
    const std::size_t byte = bitpos_ >> 3;
    const unsigned off = 7u - (bitpos_ & 7u);
    ++bitpos_;
    return ((data_[byte] >> off) & 1u) != 0;
  }

  std::uint64_t get_bits(int n) {
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) v = (v << 1) | static_cast<std::uint64_t>(get_bit());
    return v;
  }

  /// Next `n` bits without consuming them, zero-padded past the end of the
  /// stream (used by table-driven decoders; a padded lookup that resolves
  /// to a code longer than the remaining bits is caught by skip_bits).
  ///
  /// Fast path: when 8 whole bytes remain, one unaligned load + byte swap
  /// yields a 64-bit big-endian window; the requested bits are the top of
  /// the window after dropping the sub-byte offset. Valid for n in [1, 57]
  /// (57 = 64 - 7, the worst-case offset), which covers the decoders'
  /// kTableBits peeks and kMaxCodeLength codes.
  [[nodiscard]] std::uint64_t peek_bits(int n) const {
    const std::size_t byte = bitpos_ >> 3;
    if (byte + 8 <= data_.size() && n >= 1 && n <= 57) {
      std::uint64_t w;
      std::memcpy(&w, data_.data() + byte, 8);
      if constexpr (std::endian::native == std::endian::little) {
        w = __builtin_bswap64(w);
      }
      w <<= bitpos_ & 7u;
      return w >> (64 - n);
    }
    std::uint64_t v = 0;
    const std::size_t total = data_.size() * 8;
    for (int i = 0; i < n; ++i) {
      const std::size_t pos = bitpos_ + static_cast<std::size_t>(i);
      std::uint64_t bit = 0;
      if (pos < total) {
        bit = (data_[pos >> 3] >> (7u - (pos & 7u))) & 1u;
      }
      v = (v << 1) | bit;
    }
    return v;
  }

  /// Consumes `n` bits previously peeked.
  void skip_bits(int n) {
    CLIZ_REQUIRE(bitpos_ + static_cast<std::size_t>(n) <= data_.size() * 8,
                 "bitstream truncated (skip)");
    bitpos_ += static_cast<std::size_t>(n);
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t bitpos_ = 0;
};

}  // namespace cliz
