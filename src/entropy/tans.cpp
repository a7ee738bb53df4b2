#include "src/entropy/tans.hpp"

#include <algorithm>
#include <bit>

#include "src/common/status.hpp"

namespace cliz {

namespace {

unsigned ceil_log2(std::size_t n) {
  if (n <= 1) return 0;
  return static_cast<unsigned>(std::bit_width(n - 1));
}

}  // namespace

unsigned TansCodec::pick_table_log(std::size_t max_alphabet) {
  const unsigned want = ceil_log2(max_alphabet) + 2;  // headroom for precision
  return std::clamp(want, kMinTableLog, kMaxTableLog);
}

bool TansCodec::rebuild_from_frequencies(std::span<const SymbolCount> census,
                                         unsigned table_log) {
  CLIZ_REQUIRE(table_log >= kMinTableLog && table_log <= kMaxTableLog,
               "tANS table log out of range");
  require_valid_census(census);
  table_log_ = table_log;
  table_size_ = 1u << table_log;

  const std::size_t n = census.size();
  if (n > table_size_) return false;  // cannot give every symbol a slot

  symbols_.resize(n);
  norm_.resize(n);
  cum_.resize(n);
  decode_.clear();
  if (n == 0) return true;  // empty alphabet: no payload will be coded

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    symbols_[i] = census[i].symbol;
    total += census[i].count;
  }

  // Largest-remainder style normalization to exactly L slots, minimum one
  // slot per symbol, fully deterministic (ties broken by symbol order).
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t share = census[i].count * table_size_ / total;
    if (share == 0) share = 1;
    norm_[i] = static_cast<std::uint32_t>(share);
    assigned += share;
  }
  if (assigned > table_size_) {
    // Take the excess back from the largest allocations first.
    order_scratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      order_scratch_[i] = static_cast<std::uint32_t>(i);
    }
    std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return norm_[a] > norm_[b];
                     });
    std::uint64_t excess = assigned - table_size_;
    for (const std::uint32_t i : order_scratch_) {
      if (excess == 0) break;
      const std::uint64_t take =
          std::min<std::uint64_t>(norm_[i] - 1, excess);
      norm_[i] -= static_cast<std::uint32_t>(take);
      excess -= take;
    }
    CLIZ_REQUIRE(excess == 0, "tANS normalization failed");
  } else if (assigned < table_size_) {
    // Give the whole deficit to the most frequent symbol.
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (census[i].count > census[argmax].count) argmax = i;
    }
    norm_[argmax] += static_cast<std::uint32_t>(table_size_ - assigned);
  }

  build_tables();
  return true;
}

void TansCodec::build_tables() {
  const std::size_t n = symbols_.size();
  std::uint32_t running = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cum_[i] = running;
    running += norm_[i];
  }
  CLIZ_REQUIRE(running == table_size_, "tANS counts do not fill the table");

  // Identity spread: the slots of each symbol are contiguous, so the decode
  // entry for slot cum[s] + k renormalizes from counter x = norm[s] + k in
  // [norm[s], 2*norm[s]) back into [L, 2L).
  decode_.resize(table_size_);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t q = norm_[i];
    for (std::uint32_t k = 0; k < q; ++k) {
      const std::uint32_t x = q + k;
      const unsigned nb =
          table_log_ - (static_cast<unsigned>(std::bit_width(x)) - 1);
      DecodeEntry& e = decode_[cum_[i] + k];
      e.symbol = symbols_[i];
      e.base = x << nb;
      e.nbits = static_cast<std::uint8_t>(nb);
    }
  }
}

void TansCodec::serialize(ByteWriter& out) const {
  out.put_varint(symbols_.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    out.put_varint(i == 0 ? symbols_[i] : symbols_[i] - prev);
    out.put_varint(norm_[i]);
    prev = symbols_[i];
  }
}

void TansCodec::parse(ByteReader& in, unsigned table_log) {
  CLIZ_REQUIRE(table_log >= kMinTableLog && table_log <= kMaxTableLog,
               "tANS table log out of range");
  table_log_ = table_log;
  table_size_ = 1u << table_log;

  const std::uint64_t n = in.get_varint();
  CLIZ_REQUIRE(n <= table_size_, "tANS table has too many symbols");
  symbols_.resize(static_cast<std::size_t>(n));
  norm_.resize(static_cast<std::size_t>(n));
  cum_.resize(static_cast<std::size_t>(n));
  decode_.clear();
  if (n == 0) return;

  std::uint64_t symbol = 0;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t delta = in.get_varint();
    CLIZ_REQUIRE(i == 0 || delta >= 1, "tANS symbols not strictly ascending");
    symbol = (i == 0) ? delta : symbol + delta;
    CLIZ_REQUIRE(symbol <= 0xFFFFFFFFu, "tANS symbol out of range");
    const std::uint64_t count = in.get_varint();
    CLIZ_REQUIRE(count >= 1 && count <= table_size_,
                 "tANS count out of range");
    symbols_[i] = static_cast<std::uint32_t>(symbol);
    norm_[i] = static_cast<std::uint32_t>(count);
    sum += count;
  }
  CLIZ_REQUIRE(sum == table_size_, "tANS counts do not sum to table size");
  build_tables();
}

std::size_t TansCodec::find_index(std::uint32_t symbol) const {
  const auto it = std::lower_bound(symbols_.begin(), symbols_.end(), symbol);
  CLIZ_REQUIRE(it != symbols_.end() && *it == symbol,
               "symbol missing from tANS table");
  return static_cast<std::size_t>(it - symbols_.begin());
}

void TansCodec::encode_symbol(std::uint32_t symbol, std::uint32_t& state,
                              std::vector<std::uint32_t>& stack) const {
  const std::size_t i = find_index(symbol);
  const std::uint32_t q = norm_[i];
  // Shift the state down until it lands in this symbol's counter range
  // [q, 2q); the shifted-out bits are what the decoder will refill.
  unsigned nb = 0;
  while ((state >> nb) >= 2 * q) ++nb;
  stack.push_back((static_cast<std::uint32_t>(nb) << 16) |
                  (state & ((1u << nb) - 1u)));
  state = table_size_ + cum_[i] + ((state >> nb) - q);
}

std::uint32_t TansCodec::decode_symbol(std::uint32_t& state,
                                       BitReader& bits) const {
  const std::uint32_t slot = state - table_size_;
  CLIZ_REQUIRE(slot < decode_.size(), "corrupt tANS state");
  const DecodeEntry& e = decode_[slot];
  const std::uint64_t refill = bits.peek_bits(e.nbits);
  bits.skip_bits(e.nbits);
  state = e.base | static_cast<std::uint32_t>(refill);
  return e.symbol;
}

}  // namespace cliz
