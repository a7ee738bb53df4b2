#include "src/huffman/huffman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz {
namespace {

/// Census of `syms` in the coders' input form, for alphabets too wide for
/// a SymbolCensus count array.
std::vector<SymbolCount> census_of(const std::vector<std::uint32_t>& syms) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const std::uint32_t s : syms) ++counts[s];
  std::vector<SymbolCount> census;
  for (const auto& [sym, count] : counts) census.push_back({sym, count});
  return census;
}

/// Number of symbols in the codec's serialized table.
std::uint64_t table_symbols(const HuffmanCodec& codec) {
  ByteWriter table;
  codec.serialize(table);
  ByteReader r(table.bytes());
  return r.get_varint();
}

/// Bits encode() emits for `syms`.
std::uint64_t emitted_bits(const HuffmanCodec& codec,
                           const std::vector<std::uint32_t>& syms) {
  BitWriter bits;
  codec.encode(syms, bits);
  return bits.bit_count();
}

std::vector<std::uint32_t> roundtrip(const std::vector<std::uint32_t>& syms) {
  const auto codec = HuffmanCodec::from_symbols(syms);
  ByteWriter table;
  codec.serialize(table);
  BitWriter bits;
  codec.encode(syms, bits);
  const auto payload = bits.finish();

  ByteReader tr(table.bytes());
  const auto decoder = HuffmanCodec::deserialize(tr);
  BitReader br(payload);
  std::vector<std::uint32_t> out;
  out.reserve(syms.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    out.push_back(decoder.decode_one(br));
  }
  return out;
}

TEST(Huffman, UniformAlphabetRoundTrip) {
  std::vector<std::uint32_t> syms;
  for (std::uint32_t v = 0; v < 64; ++v) {
    for (int k = 0; k < 5; ++k) syms.push_back(v);
  }
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SkewedDistributionRoundTrip) {
  Rng rng(5);
  std::vector<std::uint32_t> syms;
  for (int i = 0; i < 20000; ++i) {
    // Geometric-ish: mostly 32768 (bin 0) with exponential tails, matching
    // real quantization-bin statistics.
    const double u = rng.uniform();
    const int mag = static_cast<int>(std::floor(-std::log2(1.0 - u) * 1.2));
    const int sign = rng.uniform() < 0.5 ? -1 : 1;
    syms.push_back(static_cast<std::uint32_t>(32768 + sign * mag));
  }
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, SkewedCodesShorterThanRareCodes) {
  const std::vector<SymbolCount> census{
      {1, 1000}, {2, 10}, {3, 10}, {4, 1}};
  HuffmanCodec codec;
  codec.rebuild_from_frequencies(census);
  EXPECT_LT(emitted_bits(codec, {1}), emitted_bits(codec, {4}));
}

TEST(Huffman, SingleSymbolAlphabet) {
  const std::vector<std::uint32_t> syms(100, 7);
  EXPECT_EQ(roundtrip(syms), syms);
  const auto codec = HuffmanCodec::from_symbols(syms);
  EXPECT_EQ(table_symbols(codec), 1u);
  // One-symbol codes still cost one bit each.
  EXPECT_EQ(emitted_bits(codec, syms), 100u);
}

TEST(Huffman, EmptyInputProducesEmptyCodec) {
  const auto codec = HuffmanCodec::from_symbols({});
  EXPECT_EQ(table_symbols(codec), 0u);
  BitWriter bits;
  codec.encode({}, bits);  // no-op
  EXPECT_EQ(bits.bit_count(), 0u);
}

TEST(Huffman, LargeSymbolValues) {
  std::vector<std::uint32_t> syms{0, 0xFFFFFFFFu, 0x80000000u, 0, 42,
                                  0xFFFFFFFFu};
  EXPECT_EQ(roundtrip(syms), syms);
}

TEST(Huffman, FromSymbolsMatchesCensusRebuildOnDenseAndSparseAlphabets) {
  // from_symbols counts quantization-bin alphabets in a flat array and
  // sorts wider ones; both must yield the table a rebuild from the
  // census gives.
  Rng rng(8);
  std::vector<std::uint32_t> dense(5000);
  for (auto& s : dense) {
    s = 32768 + static_cast<std::uint32_t>(rng.uniform_index(40));
  }
  std::vector<std::uint32_t> sparse(5000);
  for (auto& s : sparse) {
    s = static_cast<std::uint32_t>(rng.next_u64()) | 0x10000u;
    if (rng.uniform_index(4) == 0) s = 7;
  }
  for (const auto* syms : {&dense, &sparse}) {
    HuffmanCodec rebuilt;
    rebuilt.rebuild_from_frequencies(census_of(*syms));
    ByteWriter want;
    rebuilt.serialize(want);
    ByteWriter got;
    HuffmanCodec::from_symbols(*syms).serialize(got);
    const auto g = got.bytes();
    const auto w = want.bytes();
    EXPECT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()));
  }
}

TEST(Huffman, RandomAlphabetsRoundTrip) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Rng rng(seed);
    std::vector<std::uint32_t> syms(5000);
    const std::uint32_t alphabet = 1u << (4 + 3 * seed % 12);
    for (auto& s : syms) {
      s = static_cast<std::uint32_t>(rng.uniform_index(alphabet));
    }
    EXPECT_EQ(roundtrip(syms), syms) << "seed " << seed;
  }
}

TEST(Huffman, UnknownSymbolThrowsOnEncode) {
  const std::vector<std::uint32_t> syms{1, 2, 3};
  const auto codec = HuffmanCodec::from_symbols(syms);
  const std::vector<std::uint32_t> bad{99};
  BitWriter bits;
  EXPECT_THROW(codec.encode(bad, bits), Error);
  EXPECT_THROW((void)codec.payload_bits(census_of(bad)), Error);
}

TEST(Huffman, PayloadBitsMatchesEncodedBits) {
  Rng rng(17);
  std::vector<std::uint32_t> syms(3000);
  SymbolCensus census;
  census.reset(50);
  for (auto& s : syms) {
    s = static_cast<std::uint32_t>(rng.uniform_index(50));
    census.add(s);
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  EXPECT_EQ(codec.payload_bits(census.counts()), emitted_bits(codec, syms));
}

TEST(Huffman, NearEntropyOnSkewedData) {
  // A heavily skewed stream must code close to its empirical entropy.
  std::vector<std::uint32_t> syms;
  const std::vector<std::pair<std::uint32_t, int>> spec{
      {0, 9000}, {1, 500}, {2, 300}, {3, 150}, {4, 50}};
  for (const auto& [sym, count] : spec) {
    for (int i = 0; i < count; ++i) syms.push_back(sym);
  }
  double entropy_bits = 0.0;
  const double total = static_cast<double>(syms.size());
  for (const auto& [sym, f] : spec) {
    const double p = static_cast<double>(f) / total;
    entropy_bits += -static_cast<double>(f) * std::log2(p);
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  const double coded = static_cast<double>(emitted_bits(codec, syms));
  // Huffman cannot beat one bit per symbol; within that floor it must sit
  // close to the entropy (redundancy < 1 bit/symbol by Huffman's theorem).
  const double floor_bits =
      std::max(entropy_bits, static_cast<double>(syms.size()));
  EXPECT_GE(coded, entropy_bits);
  EXPECT_LT(coded, floor_bits + static_cast<double>(syms.size()) * 0.25);
}

// Property: for any encodable stream, payload_bits() of its census must
// equal the bit count encode() actually emits — the size estimator and the
// emitter may never drift apart (the lossless section coder picks its mode
// from the estimate). Runs over
// distributions chosen to populate every decode path: near-uniform (short
// codes, pair-table hits), geometric skew (mixed lengths), Fibonacci skew
// (codes past the 11-bit fast-table width), and a single-symbol alphabet.
TEST(Huffman, EncodedBitsMatchesEmittedBitsProperty) {
  std::vector<std::vector<std::uint32_t>> streams;

  {
    Rng rng(21);
    std::vector<std::uint32_t> syms(4096);
    for (auto& s : syms) {
      s = static_cast<std::uint32_t>(rng.uniform_index(1 << 10));
    }
    streams.push_back(std::move(syms));
  }
  {
    Rng rng(22);
    std::vector<std::uint32_t> syms(4096);
    for (auto& s : syms) {
      const double u = rng.uniform();
      const int mag = static_cast<int>(std::floor(-std::log2(1.0 - u)));
      s = static_cast<std::uint32_t>(32768 + mag);
    }
    streams.push_back(std::move(syms));
  }
  {
    // Fibonacci frequencies force code lengths well past kTableBits.
    std::vector<std::uint32_t> syms;
    std::uint64_t a = 1;
    std::uint64_t b = 1;
    for (std::uint32_t s = 0; s < 40 && b < (1ull << 40); ++s) {
      for (std::uint64_t k = 0; k < (a < 64 ? a : 64); ++k) {
        syms.push_back(s);
      }
      const std::uint64_t next = a + b;
      a = b;
      b = next;
    }
    streams.push_back(std::move(syms));
  }
  streams.emplace_back(std::vector<std::uint32_t>(257, 9u));

  for (std::size_t i = 0; i < streams.size(); ++i) {
    const auto& syms = streams[i];
    const auto codec = HuffmanCodec::from_symbols(syms);
    BitWriter bits;
    codec.encode(syms, bits);
    EXPECT_EQ(codec.payload_bits(census_of(syms)), bits.bit_count())
        << "stream " << i;

    // The batched decoder (pair-augmented fast table + wide peek) must
    // read back exactly what the bit-at-a-time decoder does.
    const auto payload = bits.finish();
    BitReader batch_reader(payload);
    std::vector<std::uint32_t> batched(syms.size());
    codec.decode_batch(batch_reader, batched.data(), batched.size());
    EXPECT_EQ(batched, syms) << "stream " << i;

    BitReader one_reader(payload);
    std::vector<std::uint32_t> singles;
    singles.reserve(syms.size());
    for (std::size_t k = 0; k < syms.size(); ++k) {
      singles.push_back(codec.decode_one(one_reader));
    }
    EXPECT_EQ(singles, batched) << "stream " << i;
  }
}

TEST(Huffman, DecodeBatchTruncatedPayloadThrows) {
  const std::vector<std::uint32_t> syms{1, 2, 3, 4, 5, 6, 7, 8};
  const auto codec = HuffmanCodec::from_symbols(syms);
  BitWriter bits;
  codec.encode(syms, bits);
  auto payload = bits.finish();
  if (!payload.empty()) payload.pop_back();
  BitReader r(payload);
  std::vector<std::uint32_t> out(syms.size());
  EXPECT_THROW(codec.decode_batch(r, out.data(), out.size()), Error);
}

TEST(Huffman, CorruptTableThrows) {
  ByteWriter w;
  w.put_varint(2);
  w.put_varint(5);
  w.put_varint(0);  // code length 0 is invalid
  w.put_varint(1);
  w.put_varint(1);
  ByteReader r(w.bytes());
  EXPECT_THROW(HuffmanCodec::deserialize(r), Error);
}

TEST(Huffman, DuplicateSymbolTableRejected) {
  // Regression (found by ASan fuzzing): a zero symbol delta after the first
  // entry means duplicate symbols, which would desynchronize the canonical
  // code assignment and overflow the fast decode table.
  ByteWriter w;
  w.put_varint(3);
  w.put_varint(5);
  w.put_varint(2);
  w.put_varint(0);  // duplicate of symbol 5
  w.put_varint(2);
  w.put_varint(1);
  w.put_varint(2);
  ByteReader r(w.bytes());
  EXPECT_THROW(HuffmanCodec::deserialize(r), Error);
}

TEST(Huffman, TruncatedPayloadThrows) {
  const std::vector<std::uint32_t> syms{1, 2, 3, 4, 5, 6, 7, 8};
  const auto codec = HuffmanCodec::from_symbols(syms);
  BitReader empty({});
  EXPECT_THROW((void)codec.decode_one(empty), Error);
}

TEST(Huffman, DecodeWithEmptyTableThrows) {
  const auto codec = HuffmanCodec::from_symbols({});
  std::vector<std::uint8_t> bytes{0xFF};
  BitReader r(bytes);
  EXPECT_THROW((void)codec.decode_one(r), Error);
}

TEST(Huffman, PathologicalSkewStaysWithinLengthCap) {
  // Fibonacci-like frequencies force maximal code lengths; the rebuild
  // loop must cap them without breaking decodability.
  std::vector<SymbolCount> census;
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::uint32_t s = 0; s < 80; ++s) {
    census.push_back({s, a});
    const std::uint64_t next = a + b;
    a = b;
    b = next;
    if (b > (1ull << 55)) break;
  }
  HuffmanCodec codec;
  codec.rebuild_from_frequencies(census);
  std::vector<std::uint32_t> syms;
  for (const auto& [sym, f] : census) syms.push_back(sym);
  EXPECT_EQ(roundtrip(syms), syms);
}

/// Writes `symbols` with codes derived independently from the serialized
/// table (canonical assignment over (length, symbol) order), one bit at a
/// time: the reference for the codec's table lookups.
std::vector<std::uint8_t> reference_bits(
    const HuffmanCodec& codec, const std::vector<std::uint32_t>& symbols) {
  ByteWriter table;
  codec.serialize(table);
  ByteReader r(table.bytes());
  const std::uint64_t n = r.get_varint();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> by_length;
  std::uint32_t sym = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sym += static_cast<std::uint32_t>(r.get_varint());
    by_length.emplace_back(r.get_varint(), sym);
  }
  std::sort(by_length.begin(), by_length.end());
  std::unordered_map<std::uint32_t, std::pair<std::uint64_t, int>> codes;
  std::uint64_t code = 0;
  std::uint64_t prev_len = by_length.empty() ? 0 : by_length[0].first;
  for (const auto& [len, s] : by_length) {
    code <<= (len - prev_len);
    codes[s] = {code++, static_cast<int>(len)};
    prev_len = len;
  }
  BitWriter bits;
  for (const std::uint32_t s : symbols) {
    const auto [c, len] = codes.at(s);
    for (int i = len - 1; i >= 0; --i) bits.put_bit(((c >> i) & 1u) != 0);
  }
  return bits.finish();
}

/// Rebuilds `codec` (reused across alphabets, as the encoder's contexts
/// do) for `syms` and checks its bits and bit counts against the reference.
void expect_encode_matches_reference(HuffmanCodec& codec,
                                     const std::vector<std::uint32_t>& syms) {
  const auto census = census_of(syms);
  codec.rebuild_from_frequencies(census);
  BitWriter bits;
  codec.encode(syms, bits);
  const std::uint64_t n_bits = bits.bit_count();
  EXPECT_EQ(bits.finish(), reference_bits(codec, syms));
  EXPECT_EQ(codec.payload_bits(census), n_bits);
}

TEST(Huffman, EncodeMatchesCanonicalReferenceOnWideSpans) {
  constexpr std::uint32_t kRadius = 1u << 15;
  Rng rng(31);
  HuffmanCodec codec;
  // Quantization codes around the radius plus the escape code 0: the
  // escape lies 2^15 below the dense bins.
  std::vector<std::uint32_t> quant;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    const int mag = static_cast<int>(std::floor(-std::log2(1.0 - u) * 3.0));
    const int sign = rng.uniform() < 0.5 ? -1 : 1;
    quant.push_back(i % 97 == 0 ? 0u
                                : static_cast<std::uint32_t>(
                                      static_cast<int>(kRadius) + sign * mag));
  }
  expect_encode_matches_reference(codec, quant);
  // Classified groups: small shifted codes plus the classified escape
  // 2 * radius + 2j + 2, far above them.
  for (const std::uint32_t j : {0u, 1u, 3u}) {
    std::vector<std::uint32_t> classified;
    for (int i = 0; i < 5000; ++i) {
      classified.push_back(i % 50 == 0 ? 2 * kRadius + 2 * j + 2
                                       : static_cast<std::uint32_t>(
                                             rng.uniform_index(2 * j + 5)));
    }
    expect_encode_matches_reference(codec, classified);
  }
  // Both ends of the 32-bit range, and a sparse random alphabet.
  std::vector<std::uint32_t> extremes{0u, 0xFFFFFFFFu, 0x80000000u, 1u,
                                      0xFFFFFFFEu, 0u, 0u};
  expect_encode_matches_reference(codec, extremes);
  std::vector<std::uint32_t> pool(300);
  for (auto& v : pool) v = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<std::uint32_t> sparse;
  for (int i = 0; i < 3000; ++i) {
    sparse.push_back(pool[rng.uniform_index(pool.size())]);
  }
  expect_encode_matches_reference(codec, sparse);
  // Back to the dense alphabet: the rebuilt lookup must not keep entries
  // of the previous one.
  expect_encode_matches_reference(codec, quant);
}

TEST(Huffman, SymbolsMissingFromAWideAlphabetThrowOnEncode) {
  // Symbols absent from the alphabet, inside and outside the densely
  // indexed range, must still be refused, also by a codec rebuilt from a
  // dense alphabet that had them.
  std::vector<SymbolCount> dense;
  for (std::uint32_t s = 0; s < 100; ++s) dense.push_back({s, 1 + s % 7});
  for (std::uint32_t s = 32700; s < 32800; ++s) {
    dense.push_back({s, 1 + s % 5});
  }
  HuffmanCodec codec;
  codec.rebuild_from_frequencies(dense);
  const std::vector<std::uint32_t> syms{0, 32760, 32761, 32763, 32770, 65540};
  codec.rebuild_from_frequencies(census_of(syms));
  for (const std::uint32_t bad :
       {1u, 32759u, 32762u, 32771u, 65539u, 65541u, 0xFFFFFFFFu}) {
    BitWriter bits;
    const std::vector<std::uint32_t> one{bad};
    EXPECT_THROW(codec.encode(one, bits), Error) << bad;
  }
  BitWriter bits;
  EXPECT_NO_THROW(codec.encode(syms, bits));
}

TEST(Huffman, MalformedCensusIsRefused) {
  const std::vector<std::vector<SymbolCount>> bad{
      {{3, 5}, {1, 2}},          // descending
      {{1, 5}, {1, 2}},          // duplicate symbol
      {{1, 5}, {2, 0}, {3, 1}},  // zero count
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    HuffmanCodec codec;
    EXPECT_THROW(codec.rebuild_from_frequencies(bad[i]), Error) << i;
  }
}

/// The min-heap merge the codec used before its two-queue merge: pops the
/// smallest (weight, node index) pair twice, pushes their sum under the next
/// internal index, and reads each leaf's length by walking to the root.
std::vector<std::uint8_t> heap_code_lengths(
    const std::vector<std::uint64_t>& freqs) {
  const std::size_t n = freqs.size();
  if (n <= 1) return std::vector<std::uint8_t>(n, 1);
  using Node = std::pair<std::uint64_t, std::uint32_t>;
  const auto cmp = std::greater<Node>();
  std::vector<Node> heap;
  std::vector<std::uint32_t> parent(2 * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    heap.emplace_back(freqs[i], static_cast<std::uint32_t>(i));
  }
  std::make_heap(heap.begin(), heap.end(), cmp);
  auto next = static_cast<std::uint32_t>(n);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const Node a = heap.back();
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const Node b = heap.back();
    heap.pop_back();
    parent[a.second] = next;
    parent[b.second] = next;
    heap.emplace_back(a.first + b.first, next);
    std::push_heap(heap.begin(), heap.end(), cmp);
    ++next;
  }
  const std::uint32_t root = heap.front().second;
  std::vector<std::uint8_t> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t len = 0;
    for (auto v = static_cast<std::uint32_t>(i); v != root; v = parent[v]) {
      ++len;
    }
    lengths[i] = len;
  }
  return lengths;
}

/// The table serialize() writes for `census` when its lengths come from
/// the heap merge, with the same halving loop past the 57-bit cap.
std::vector<std::uint8_t> heap_reference_table(
    const std::vector<SymbolCount>& census) {
  std::vector<std::uint64_t> freqs;
  for (const auto& c : census) freqs.push_back(c.count);
  auto lengths = heap_code_lengths(freqs);
  while (!lengths.empty() &&
         *std::max_element(lengths.begin(), lengths.end()) > 57) {
    for (auto& f : freqs) f = f / 2 + 1;
    lengths = heap_code_lengths(freqs);
  }
  ByteWriter out;
  out.put_varint(census.size());
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < census.size(); ++i) {
    out.put_varint(census[i].symbol - prev);
    out.put_varint(lengths[i]);
    prev = census[i].symbol;
  }
  const auto bytes = out.bytes();
  return {bytes.begin(), bytes.end()};
}

TEST(Huffman, CodeLengthsMatchHeapReference) {
  Rng rng(97);
  std::vector<std::vector<SymbolCount>> censuses;
  // Random alphabets of 1 to 70,000 symbols; small count ranges make most
  // weights tie, wide ones spread them.
  for (const std::size_t n : {1u, 2u, 3u, 17u, 256u, 300u, 4099u, 65536u,
                              70000u}) {
    for (const std::uint64_t spread : {1u, 3u, 1000u, 1u << 30}) {
      std::vector<SymbolCount> census;
      std::uint32_t sym = static_cast<std::uint32_t>(rng.uniform_index(50));
      for (std::size_t i = 0; i < n; ++i) {
        census.push_back({sym, 1 + rng.uniform_index(spread)});
        sym += 1 + static_cast<std::uint32_t>(rng.uniform_index(3));
      }
      censuses.push_back(std::move(census));
    }
  }
  // Fibonacci skews: 60 symbols give codes past the 57-bit cap, so the
  // halving loop runs; 88 symbols push the total weight near 2^63. Both
  // are also mixed with a block of equal counts and shuffled over the
  // alphabet.
  for (const std::size_t len : {30u, 60u, 88u}) {
    std::vector<std::uint64_t> fib{1, 1};
    while (fib.size() < len) fib.push_back(fib[fib.size() - 2] + fib.back());
    for (const bool mixed : {false, true}) {
      std::vector<std::uint64_t> counts = fib;
      if (mixed) {
        for (int i = 0; i < 200; ++i) counts.push_back(5);
        for (std::size_t i = counts.size(); i > 1; --i) {
          std::swap(counts[i - 1], counts[rng.uniform_index(i)]);
        }
      }
      std::vector<SymbolCount> census;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        census.push_back({static_cast<std::uint32_t>(3 * i), counts[i]});
      }
      censuses.push_back(std::move(census));
    }
  }

  HuffmanCodec codec;  // reused, as the encoder's contexts do
  for (std::size_t c = 0; c < censuses.size(); ++c) {
    codec.rebuild_from_frequencies(censuses[c]);
    ByteWriter got;
    codec.serialize(got);
    const auto g = got.bytes();
    EXPECT_EQ(std::vector<std::uint8_t>(g.begin(), g.end()),
              heap_reference_table(censuses[c]))
        << "census " << c << " (" << censuses[c].size() << " symbols)";
  }
}

TEST(Huffman, FrequencyBuiltCodecRefusesDecode) {
  const std::vector<std::uint32_t> syms{1, 2, 2, 3, 3, 3, 3};
  HuffmanCodec codec;
  codec.rebuild_from_frequencies(census_of(syms));
  BitWriter bits;
  codec.encode(syms, bits);
  const auto payload = bits.finish();

  const auto expect_refused = [&](const HuffmanCodec& c) {
    BitReader one(payload);
    try {
      (void)c.decode_one(one);
      ADD_FAILURE() << "decode_one decoded without a decode table";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadArgument);
    }
    BitReader batch(payload);
    std::vector<std::uint32_t> out(syms.size());
    try {
      c.decode_batch(batch, out.data(), out.size());
      ADD_FAILURE() << "decode_batch decoded without a decode table";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadArgument);
    }
  };
  expect_refused(codec);

  // A parse of its table decodes; rebuilding that codec from frequencies
  // drops its decode table again.
  ByteWriter table;
  codec.serialize(table);
  ByteReader tr(table.bytes());
  HuffmanCodec decoder;
  decoder.parse(tr);
  BitReader br(payload);
  std::vector<std::uint32_t> out(syms.size());
  decoder.decode_batch(br, out.data(), out.size());
  EXPECT_EQ(out, syms);
  decoder.rebuild_from_frequencies(census_of(syms));
  expect_refused(decoder);
}

TEST(SymbolCensus, ListsSeenSymbolsAscendingAcrossResets) {
  SymbolCensus census;
  census.reset(100);
  for (const std::uint32_t s : {42u, 7u, 42u, 99u, 0u, 7u, 42u}) census.add(s);
  EXPECT_EQ(census.size(), 4u);
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want{
      {0, 1}, {7, 2}, {42, 3}, {99, 1}};
  auto got = census.counts();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].symbol, want[i].first);
    EXPECT_EQ(got[i].count, want[i].second);
  }
  // Symbols added after a read are merged into the next one.
  census.add(5);
  census.add(99);
  got = census.counts();
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[1].symbol, 5u);
  EXPECT_EQ(got[4].count, 2u);

  // A reset forgets every count, and the alphabet bounds the symbols.
  census.reset(100);
  EXPECT_EQ(census.size(), 0u);
  EXPECT_TRUE(census.counts().empty());
  census.add(42);
  got = census.counts();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].symbol, 42u);
  EXPECT_EQ(got[0].count, 1u);
  census.reset(10);
  census.add(9);
  EXPECT_THROW(census.add(10), Error);
}

}  // namespace
}  // namespace cliz
