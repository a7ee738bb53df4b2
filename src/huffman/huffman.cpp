#include "src/huffman/huffman.hpp"

#include <algorithm>
#include <functional>

#include "src/common/status.hpp"

namespace cliz {

namespace {

constexpr std::uint8_t kMaxCodeLength = 57;  // fits BitWriter's 64-bit staging
// from_symbols counts alphabets below max(2^16, input size), which holds
// every quantization-bin alphabet, in a flat array: faster than sorting.
constexpr std::size_t kDenseCensusSpan = std::size_t{1} << 16;

}  // namespace

/// Computes Huffman code lengths with the classic two-node merge, into
/// `lengths` (parallel to `freqs`). Scratch buffers live on the codec so
/// repeated rebuilds do not allocate.
void HuffmanCodec::compute_code_lengths(
    const std::vector<std::uint64_t>& freqs,
    std::vector<std::uint8_t>& lengths) {
  const std::size_t n = freqs.size();
  lengths.resize(n);
  if (n == 0) return;
  if (n == 1) {
    lengths[0] = 1;
    return;
  }

  // Min-heap of (weight, node index < n: leaf, >= n: internal). greater<>
  // pops the smallest weight, smallest index on ties, so the tree shape
  // (and thus the lengths) is deterministic. All pairs are distinct — the
  // index is unique — so the pop order does not depend on heap layout.
  const auto cmp = std::greater<std::pair<std::uint64_t, std::uint32_t>>();
  auto& heap = heap_scratch_;
  heap.clear();
  auto& parent = parent_scratch_;
  parent.assign(2 * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    heap.emplace_back(freqs[i], static_cast<std::uint32_t>(i));
  }
  std::make_heap(heap.begin(), heap.end(), cmp);
  std::uint32_t next = static_cast<std::uint32_t>(n);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto a = heap.back();
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto b = heap.back();
    heap.pop_back();
    parent[a.second] = next;
    parent[b.second] = next;
    heap.emplace_back(a.first + b.first, next);
    std::push_heap(heap.begin(), heap.end(), cmp);
    ++next;
  }
  const std::uint32_t root = heap.front().second;

  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t len = 0;
    for (std::uint32_t v = static_cast<std::uint32_t>(i); v != root;
         v = parent[v]) {
      ++len;
    }
    lengths[i] = len;
  }
}

void HuffmanCodec::rebuild_from_frequencies(
    std::span<const SymbolCount> census) {
  require_valid_census(census);
  auto& freqs = freq_scratch_;
  freqs.resize(census.size());
  symbols_.resize(census.size());
  for (std::size_t i = 0; i < census.size(); ++i) {
    symbols_[i] = census[i].symbol;
    freqs[i] = census[i].count;
  }

  auto& lengths = length_scratch_;
  compute_code_lengths(freqs, lengths);
  // Extremely skewed distributions can exceed the coder's length cap; halve
  // frequencies (keeping them positive) until the tree fits. This perturbs
  // optimality negligibly and only triggers on pathological inputs.
  while (!lengths.empty() &&
         *std::max_element(lengths.begin(), lengths.end()) > kMaxCodeLength) {
    for (auto& f : freqs) f = f / 2 + 1;
    compute_code_lengths(freqs, lengths);
  }

  lengths_.assign(lengths.begin(), lengths.end());
  build_canonical();
}

HuffmanCodec HuffmanCodec::from_symbols(
    std::span<const std::uint32_t> symbols) {
  HuffmanCodec codec;
  const std::size_t top =
      symbols.empty() ? 0 : *std::max_element(symbols.begin(), symbols.end());
  if (top < std::max(symbols.size(), kDenseCensusSpan)) {
    SymbolCensus census;
    census.reset(top + 1);
    for (const std::uint32_t s : symbols) census.add(s);
    codec.rebuild_from_frequencies(census.counts());
    return codec;
  }
  std::vector<std::uint32_t> sorted(symbols.begin(), symbols.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<SymbolCount> census;
  for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    census.push_back({sorted[i], j - i});
  }
  codec.rebuild_from_frequencies(census);
  return codec;
}

void HuffmanCodec::build_canonical() {
  const std::size_t n = symbols_.size();
  CLIZ_REQUIRE(lengths_.size() == n, "length/symbol arity mismatch");
  // The fast decode table packs 24-bit canonical indices; parse() enforces
  // the same cap on deserialized tables.
  CLIZ_REQUIRE(n <= (std::size_t{1} << 24), "huffman alphabet too large");

  // Canonical order: by (length, symbol). The permuted copies land in
  // member scratch and are swapped in, so both buffers keep their capacity
  // for the next rebuild.
  auto& order = order_scratch_;
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (lengths_[a] != lengths_[b]) return lengths_[a] < lengths_[b];
              return symbols_[a] < symbols_[b];
            });
  auto& sym2 = symbol_scratch_;
  auto& len2 = canon_scratch_;
  sym2.resize(n);
  len2.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sym2[i] = symbols_[order[i]];
    len2[i] = lengths_[order[i]];
  }
  symbols_.swap(sym2);
  lengths_.swap(len2);

  max_length_ = n == 0 ? 0 : lengths_.back();
  count_.assign(max_length_ + 1, 0);
  for (const std::uint8_t l : lengths_) ++count_[l];

  first_code_.assign(max_length_ + 1, 0);
  first_index_.assign(max_length_ + 1, 0);
  std::uint64_t code = 0;
  std::uint32_t index = 0;
  for (std::uint8_t l = 1; l <= max_length_; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    first_index_[l] = index;
    index += count_[l];
    CLIZ_REQUIRE(first_code_[l] + count_[l] <= (std::uint64_t{1} << l),
                 "invalid canonical code lengths");
  }

  const auto code_at = [&](std::size_t i) {
    const std::uint8_t l = lengths_[i];
    return first_code_[l] +
           (static_cast<std::uint32_t>(i) - first_index_[l]);
  };

  // Encode table: canonical indices re-sorted by symbol value, so the
  // fallback lookup is a binary search and serialize() walks it directly.
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return symbols_[a] < symbols_[b];
  });
  enc_symbols_.resize(n);
  enc_codes_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t i = order[k];
    enc_symbols_[k] = symbols_[i];
    enc_codes_[k] = (code_at(i) << 6) | lengths_[i];
  }
  build_direct_table();

  // One-shot decode table: every kTableBits-bit prefix of a short code maps
  // straight to its canonical index; longer codes leave a miss marker.
  fast_table_.assign(n == 0 ? 0 : (std::size_t{1} << kTableBits), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t l = lengths_[i];
    if (l > kTableBits) continue;
    const std::uint64_t base = code_at(i) << (kTableBits - l);
    const std::uint64_t fill = std::uint64_t{1} << (kTableBits - l);
    CLIZ_REQUIRE(base + fill <= fast_table_.size(),
                 "corrupt huffman table (code overflow)");
    const std::uint64_t entry =
        (static_cast<std::uint64_t>(i) << 16) | l;
    for (std::uint64_t p = 0; p < fill; ++p) fast_table_[base + p] = entry;
  }
  // Pair augmentation: when a prefix's remaining bits hold a complete second
  // code, record it so batch decoding consumes two symbols per peek. The
  // second symbol is found by re-probing the table with the leftover bits
  // moved to the top of the window; only the first-symbol fields (which this
  // pass never alters) of the probed entry are read, so in-place
  // augmentation is safe.
  for (std::uint64_t p = 0; p < fast_table_.size(); ++p) {
    const std::uint64_t e1 = fast_table_[p];
    const std::uint64_t l1 = e1 & 0xFF;
    if (l1 == 0 || l1 >= kTableBits) continue;
    const std::uint64_t rem = kTableBits - l1;
    const std::uint64_t probe = (p & ((std::uint64_t{1} << rem) - 1)) << l1;
    const std::uint64_t e2 = fast_table_[probe];
    const std::uint64_t l2 = e2 & 0xFF;
    if (l2 == 0 || l2 > rem) continue;
    const std::uint64_t idx2 = (e2 >> 16) & 0xFFFFFF;
    fast_table_[p] = e1 | (l2 << 8) | (idx2 << 40);
  }
}

void HuffmanCodec::build_direct_table() {
  const std::size_t n = enc_symbols_.size();
  if (n == 0) {
    direct_.clear();
    return;
  }
  const std::uint64_t cap =
      std::max(kDirectMinSpan, kDirectSpanPerSymbol * n);
  // Two-pointer sweep over the sorted symbols: the window [a, b] holding
  // the most symbols within a span of `cap` (the first such on ties).
  std::size_t best_a = 0;
  std::size_t best_count = 0;
  for (std::size_t a = 0, b = 0; b < n; ++b) {
    while (std::uint64_t{enc_symbols_[b]} - enc_symbols_[a] >= cap) ++a;
    if (b - a + 1 > best_count) {
      best_count = b - a + 1;
      best_a = a;
    }
  }
  const std::size_t best_b = best_a + best_count - 1;
  direct_lo_ = enc_symbols_[best_a];
  direct_.assign(enc_symbols_[best_b] - direct_lo_ + std::size_t{1}, 0);
  for (std::size_t k = best_a; k <= best_b; ++k) {
    direct_[enc_symbols_[k] - direct_lo_] = enc_codes_[k];
  }
}

std::uint64_t HuffmanCodec::find_code(std::uint32_t symbol) const {
  const std::uint32_t off = symbol - direct_lo_;
  if (off < direct_.size()) return direct_[off];
  const auto it =
      std::lower_bound(enc_symbols_.begin(), enc_symbols_.end(), symbol);
  if (it == enc_symbols_.end() || *it != symbol) return 0;
  return enc_codes_[static_cast<std::size_t>(it - enc_symbols_.begin())];
}

void HuffmanCodec::serialize(ByteWriter& out) const {
  out.put_varint(symbols_.size());
  // The encode table is already sorted by symbol — exactly the delta-coded
  // order the format stores.
  std::uint32_t prev = 0;
  for (std::size_t k = 0; k < enc_symbols_.size(); ++k) {
    out.put_varint(enc_symbols_[k] - prev);
    out.put_varint(enc_codes_[k] & 63);
    prev = enc_symbols_[k];
  }
}

HuffmanCodec HuffmanCodec::deserialize(ByteReader& in) {
  HuffmanCodec codec;
  codec.parse(in);
  return codec;
}

void HuffmanCodec::parse(ByteReader& in) {
  const std::uint64_t n = in.get_varint();
  // The quantizer alphabet tops out around 2*radius + escapes; anything
  // beyond a few million symbols is a corrupt stream, not a real table.
  CLIZ_REQUIRE(n <= (std::uint64_t{1} << 24), "huffman table too large");
  // Every entry costs >= 2 stream bytes (delta + length varints), so a
  // declared count past half the remaining bytes cannot be satisfied —
  // reject before sizing the symbol arrays to a bogus count.
  CLIZ_REQUIRE(n <= in.remaining() / 2, "huffman table truncated");
  symbols_.resize(static_cast<std::size_t>(n));
  lengths_.resize(static_cast<std::size_t>(n));
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t delta = in.get_varint();
    // Symbols are stored ascending and must be unique: a zero delta after
    // the first entry means a corrupt table (duplicates would desynchronize
    // the canonical code assignment).
    CLIZ_REQUIRE(i == 0 || delta > 0, "corrupt huffman table (duplicate)");
    CLIZ_REQUIRE(delta <= 0xFFFFFFFFull - prev, "corrupt symbol delta");
    prev += static_cast<std::uint32_t>(delta);
    const std::uint64_t len = in.get_varint();
    CLIZ_REQUIRE(len >= 1 && len <= kMaxCodeLength, "corrupt code length");
    symbols_[i] = prev;
    lengths_[i] = static_cast<std::uint8_t>(len);
  }
  build_canonical();
}

void HuffmanCodec::encode(std::span<const std::uint32_t> symbols,
                          BitWriter& bits) const {
  for (const std::uint32_t s : symbols) {
    const std::uint64_t c = find_code(s);
    CLIZ_REQUIRE(c != 0, "symbol not in huffman table");
    bits.put_bits(c >> 6, static_cast<int>(c & 63));
  }
}

std::uint32_t HuffmanCodec::decode_one(BitReader& bits) const {
  CLIZ_REQUIRE(max_length_ > 0, "decoding with empty huffman table");
  const std::uint64_t entry =
      fast_table_[bits.peek_bits(kTableBits)];
  if ((entry & 0xFF) != 0) {
    bits.skip_bits(static_cast<int>(entry & 0xFF));
    return symbols_[(entry >> 16) & 0xFFFFFF];
  }
  return decode_slow(bits);
}

void HuffmanCodec::decode_batch(BitReader& bits, std::uint32_t* out,
                                std::size_t n) const {
  if (n == 0) return;
  CLIZ_REQUIRE(max_length_ > 0, "decoding with empty huffman table");
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t entry = fast_table_[bits.peek_bits(kTableBits)];
    const std::uint64_t l1 = entry & 0xFF;
    if (l1 == 0) {
      out[i++] = decode_slow(bits);
      continue;
    }
    const std::uint64_t l2 = (entry >> 8) & 0xFF;
    // A pair hit is exact even near the stream's end: i + 1 < n means the
    // stream still holds a complete second code, whose bits are real (the
    // peek's zero padding only starts past them), and prefix-freeness makes
    // the window lookup resolve to exactly that code.
    if (l2 != 0 && i + 1 < n) {
      bits.skip_bits(static_cast<int>(l1 + l2));
      out[i] = symbols_[(entry >> 16) & 0xFFFFFF];
      out[i + 1] = symbols_[(entry >> 40) & 0xFFFFFF];
      i += 2;
      continue;
    }
    bits.skip_bits(static_cast<int>(l1));
    out[i++] = symbols_[(entry >> 16) & 0xFFFFFF];
  }
}

std::uint32_t HuffmanCodec::decode_slow(BitReader& bits) const {
  std::uint64_t code = 0;
  for (std::uint8_t l = 1; l <= max_length_; ++l) {
    code = (code << 1) | static_cast<std::uint64_t>(bits.get_bit());
    if (count_[l] != 0 && code >= first_code_[l] &&
        code < first_code_[l] + count_[l]) {
      return symbols_[first_index_[l] +
                      static_cast<std::uint32_t>(code - first_code_[l])];
    }
  }
  throw Error("cliz: corrupt huffman stream (no code matched)");
}

std::uint64_t HuffmanCodec::payload_bits(
    std::span<const SymbolCount> census) const {
  std::uint64_t total = 0;
  for (const auto& [sym, f] : census) {
    const std::uint64_t c = find_code(sym);
    CLIZ_REQUIRE(c != 0, "symbol not in huffman table");
    total += f * (c & 63);
  }
  return total;
}

}  // namespace cliz
