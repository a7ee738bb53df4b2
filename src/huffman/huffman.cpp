#include "src/huffman/huffman.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "src/common/status.hpp"

namespace cliz {

namespace {

constexpr std::uint8_t kMaxCodeLength = 57;  // fits BitWriter's 64-bit staging
// from_symbols counts alphabets below max(2^16, input size), which holds
// every quantization-bin alphabet, in a flat array: faster than sorting.
constexpr std::size_t kDenseCensusSpan = std::size_t{1} << 16;

}  // namespace

/// Computes Huffman code lengths with the two-queue merge, into `lengths`
/// (parallel to `freqs`), and returns the longest. The leaves are sorted
/// once by (weight, index); merged nodes get indices n, n+1, ... and are
/// created in non-decreasing weight order, so a FIFO keeps them sorted too.
/// Each step pops the smaller front by (weight, index) -- a leaf wins a
/// tie, its index being below every merged node's -- which is exactly the
/// order a min-heap of (weight, index) pairs pops, so the tree (and thus
/// the lengths) is the heap merge's. Scratch buffers live on the codec so
/// repeated rebuilds do not allocate.
std::uint8_t HuffmanCodec::compute_code_lengths(
    const std::vector<std::uint64_t>& freqs,
    std::vector<std::uint8_t>& lengths) {
  const std::size_t n = freqs.size();
  lengths.resize(n);
  if (n == 0) return 0;
  if (n == 1) {
    lengths[0] = 1;
    return 1;
  }

  // Stable LSD radix sort by weight, one pass per byte that is not the same
  // in every weight: equal weights keep index order, so the result is in
  // (weight, index) order.
  auto& leaves = leaf_scratch_;
  auto& sorted = leaf_sorted_scratch_;
  leaves.resize(n);
  sorted.resize(n);
  std::uint64_t varying = 0;
  for (std::size_t i = 0; i < n; ++i) {
    leaves[i] = {freqs[i], static_cast<std::uint32_t>(i)};
    varying |= freqs[i] ^ freqs[0];
  }
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    std::array<std::uint32_t, 256> start{};
    for (const auto& l : leaves) ++start[(l.first >> shift) & 0xFF];
    std::uint32_t sum = 0;
    for (auto& s : start) sum += std::exchange(s, sum);
    for (const auto& l : leaves) {
      sorted[start[(l.first >> shift) & 0xFF]++] = l;
    }
    leaves.swap(sorted);
  }

  auto& merged = merged_scratch_;  // weight of merged node n + k
  merged.resize(n - 1);
  auto& parent = parent_scratch_;
  parent.resize(2 * n - 1);
  std::size_t leaf = 0;
  std::size_t front = 0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    // Pop two nodes; merged nodes 0 .. k-1 exist, front .. k-1 are queued.
    std::uint32_t node[2];
    std::uint64_t weight = 0;
    for (auto& v : node) {
      if (leaf < n && (front == k || leaves[leaf].first <= merged[front])) {
        weight += leaves[leaf].first;
        v = leaves[leaf++].second;
      } else {
        weight += merged[front];
        v = static_cast<std::uint32_t>(n + front++);
      }
    }
    parent[node[0]] = parent[node[1]] = static_cast<std::uint32_t>(n + k);
    merged[k] = weight;
  }

  // Every node's parent has a higher index, so one descending pass assigns
  // each depth from its parent's (the root, 2n - 2, has depth 0).
  auto& depth = depth_scratch_;
  depth.resize(2 * n - 1);
  depth[2 * n - 2] = 0;
  std::uint8_t longest = 0;
  for (std::size_t v = 2 * n - 2; v-- > 0;) {
    depth[v] = static_cast<std::uint8_t>(depth[parent[v]] + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    lengths[i] = depth[i];
    longest = std::max(longest, depth[i]);
  }
  return longest;
}

void HuffmanCodec::rebuild_from_frequencies(
    std::span<const SymbolCount> census) {
  require_valid_census(census);
  auto& freqs = freq_scratch_;
  freqs.resize(census.size());
  enc_symbols_.resize(census.size());
  for (std::size_t i = 0; i < census.size(); ++i) {
    enc_symbols_[i] = census[i].symbol;
    freqs[i] = census[i].count;
  }

  // Extremely skewed distributions can exceed the coder's length cap; halve
  // frequencies (keeping them positive) until the tree fits. This perturbs
  // optimality negligibly and only triggers on pathological inputs.
  while (compute_code_lengths(freqs, lengths_) > kMaxCodeLength) {
    for (auto& f : freqs) f = f / 2 + 1;
  }
  build_canonical();
  // An encoder never decodes with this table: skip the decode table and
  // leave the codec refusing decode_one/decode_batch.
  fast_table_.clear();
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
  } else {
    std::vector<std::uint32_t> sorted(symbols.begin(), symbols.end());
    std::sort(sorted.begin(), sorted.end());
    std::vector<SymbolCount> census;
    for (std::size_t i = 0, j = 0; i < sorted.size(); i = j) {
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      census.push_back({sorted[i], j - i});
    }
    codec.rebuild_from_frequencies(census);
  }
  codec.build_decode_table();
  return codec;
}

void HuffmanCodec::build_canonical() {
  const std::size_t n = enc_symbols_.size();
  CLIZ_REQUIRE(lengths_.size() == n, "length/symbol arity mismatch");
  // The fast decode table packs 24-bit canonical indices; parse() enforces
  // the same cap on deserialized tables.
  CLIZ_REQUIRE(n <= (std::size_t{1} << 24), "huffman alphabet too large");

  max_length_ =
      n == 0 ? 0 : *std::max_element(lengths_.begin(), lengths_.end());
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

  // Canonical order is (length, symbol). The symbols arrive strictly
  // ascending (require_valid_census and parse() check it), so one stable
  // pass by length places every symbol and gives its code: the k-th symbol
  // of length l is canonical index first_index_[l] + k, code
  // first_code_[l] + k.
  std::array<std::uint32_t, kMaxCodeLength + 1> next{};
  std::copy(first_index_.begin(), first_index_.end(), next.begin());
  symbols_.resize(n);
  enc_codes_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint8_t l = lengths_[k];
    const std::uint32_t i = next[l]++;
    symbols_[i] = enc_symbols_[k];
    enc_codes_[k] = ((first_code_[l] + (i - first_index_[l])) << 6) | l;
  }
  build_direct_table();
}

void HuffmanCodec::build_decode_table() {
  // One-shot decode table: every kTableBits-bit prefix of a short code maps
  // straight to its canonical index; longer codes leave a miss marker.
  fast_table_.assign(symbols_.empty() ? 0 : (std::size_t{1} << kTableBits),
                     0);
  const std::uint8_t short_max =
      std::min<std::uint8_t>(max_length_, kTableBits);
  for (std::uint8_t l = 1; l <= short_max; ++l) {
    const std::uint64_t fill = std::uint64_t{1} << (kTableBits - l);
    for (std::uint32_t k = 0; k < count_[l]; ++k) {
      const std::uint64_t base = (first_code_[l] + k) << (kTableBits - l);
      CLIZ_REQUIRE(base + fill <= fast_table_.size(),
                   "corrupt huffman table (code overflow)");
      const std::uint64_t entry =
          (static_cast<std::uint64_t>(first_index_[l] + k) << 16) | l;
      std::fill_n(fast_table_.begin() + static_cast<std::ptrdiff_t>(base),
                  fill, entry);
    }
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
  enc_symbols_.resize(static_cast<std::size_t>(n));
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
    enc_symbols_[i] = prev;
    lengths_[i] = static_cast<std::uint8_t>(len);
  }
  build_canonical();
  build_decode_table();
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
  require_decode_table();
  const std::uint64_t entry = fast_table_[bits.peek_bits(kTableBits)];
  if ((entry & 0xFF) != 0) {
    bits.skip_bits(static_cast<int>(entry & 0xFF));
    return symbols_[(entry >> 16) & 0xFFFFFF];
  }
  return decode_slow(bits);
}

void HuffmanCodec::decode_batch(BitReader& bits, std::uint32_t* out,
                                std::size_t n) const {
  if (n == 0) return;
  require_decode_table();
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

void HuffmanCodec::require_decode_table() const {
  CLIZ_REQUIRE(max_length_ > 0, "decoding with empty huffman table");
  CLIZ_REQUIRE_CODE(!fast_table_.empty(), kBadArgument,
                    "huffman codec built from frequencies cannot decode");
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
