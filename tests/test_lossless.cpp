#include "src/lossless/lossless.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/bytestream.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "tests/fault_injection.hpp"

namespace cliz {
namespace {

void expect_roundtrip(const std::vector<std::uint8_t>& input) {
  const auto compressed = lossless_compress(input);
  const auto output = lossless_decompress(compressed);
  ASSERT_EQ(output.size(), input.size());
  EXPECT_EQ(output, input);
}

TEST(Lossless, EmptyInput) { expect_roundtrip({}); }

TEST(Lossless, TinyInputs) {
  expect_roundtrip({0x42});
  expect_roundtrip({1, 2, 3});
  expect_roundtrip({0, 0, 0, 0});
}

TEST(Lossless, AllZeros) {
  expect_roundtrip(std::vector<std::uint8_t>(100000, 0));
}

TEST(Lossless, AllZerosCompressWell) {
  const std::vector<std::uint8_t> input(100000, 0);
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 100);
}

TEST(Lossless, RepeatingPatternCompresses) {
  std::vector<std::uint8_t> input;
  for (int i = 0; i < 5000; ++i) {
    const char* chunk = "climate-data-chunk-";
    input.insert(input.end(), chunk, chunk + std::strlen(chunk));
  }
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 10);
  expect_roundtrip(input);
}

TEST(Lossless, RandomBytesStoredNotInflated) {
  Rng rng(3);
  std::vector<std::uint8_t> input(65536);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto compressed = lossless_compress(input);
  // Stored fallback: tiny header only.
  EXPECT_LE(compressed.size(), input.size() + 16);
  expect_roundtrip(input);
}

TEST(Lossless, TextLikeDataRoundTrip) {
  Rng rng(4);
  std::vector<std::uint8_t> input;
  const std::string words[] = {"temperature", "salinity", "pressure",
                               "humidity", " ", "\n"};
  for (int i = 0; i < 20000; ++i) {
    const auto& w = words[rng.uniform_index(6)];
    input.insert(input.end(), w.begin(), w.end());
  }
  const auto compressed = lossless_compress(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
  expect_roundtrip(input);
}

TEST(Lossless, LongMatchesBeyondMaxMatchLength) {
  // A run longer than the coder's max match must split correctly.
  std::vector<std::uint8_t> input(1 << 16, 0xAA);
  expect_roundtrip(input);
}

TEST(Lossless, MatchesAcrossWindowBoundary) {
  // Pattern repeats at distance > 64 KiB: the window-limited matcher must
  // still round-trip (just with fresh literals).
  std::vector<std::uint8_t> block(70000);
  Rng rng(5);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_index(4));
  std::vector<std::uint8_t> input = block;
  input.insert(input.end(), block.begin(), block.end());
  expect_roundtrip(input);
}

class LosslessSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LosslessSizeSweep, MixedContentRoundTrip) {
  Rng rng(100 + GetParam());
  std::vector<std::uint8_t> input(GetParam());
  for (std::size_t i = 0; i < input.size(); ++i) {
    // Mix of runs and noise.
    input[i] = (i / 64) % 3 == 0
                   ? 0x55
                   : static_cast<std::uint8_t>(rng.uniform_index(16));
  }
  expect_roundtrip(input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LosslessSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 63, 64, 65,
                                           255, 256, 257, 4095, 4096, 65535,
                                           65536, 65537, 200000));

TEST(Lossless, CorruptModeByteThrows) {
  std::vector<std::uint8_t> bad{9, 4, 1, 2, 3, 4};
  EXPECT_THROW(lossless_decompress(bad), Error);
}

TEST(Lossless, RetiredModesAreUnsupported) {
  // Modes 0 and 1 (v1, no CRC) and 5 (RLE) are refused on the mode byte,
  // before the declared size is read: even a size bomb under a 1-byte
  // budget is kUnsupported, not kLimitExceeded.
  ResourceLimits limits;
  limits.max_output_bytes = 1;
  for (const std::uint8_t mode : {0, 1, 5}) {
    ByteWriter bomb;
    bomb.put_u8(mode);
    bomb.put_varint(std::uint64_t{1} << 39);
    fault::expect_retired(
        [&] { (void)lossless_decompress(bomb.bytes(), limits); },
        "lossless mode " + std::to_string(mode));
  }
}

TEST(Lossless, TruncatedStreamThrows) {
  const std::vector<std::uint8_t> input(1000, 7);
  auto compressed = lossless_compress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, EmptyStreamThrows) {
  EXPECT_THROW(lossless_decompress({}), Error);
}

// --- block-split container (mode 4) -------------------------------------
// Inputs of 1 MiB and up are cut into fixed 256 KiB blocks compressed
// independently (and in parallel); the partition is purely size-based, so
// the container must be byte-identical at every thread count.

std::vector<std::uint8_t> block_split_input(std::size_t n) {
  Rng rng(42);
  std::vector<std::uint8_t> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = (i / 96) % 3 == 0
                   ? 0x33
                   : static_cast<std::uint8_t>(rng.uniform_index(24));
  }
  return input;
}

TEST(Lossless, BlockSplitRoundTrip) {
  // 1 MiB + change: crosses the split threshold with an uneven tail block.
  const auto input = block_split_input((1u << 20) + 12345);
  const auto compressed = lossless_compress(input);
  ASSERT_FALSE(compressed.empty());
  EXPECT_EQ(compressed[0], 4) << "expected the block-split container";
  EXPECT_LT(compressed.size(), input.size());
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, BlockSplitExactMultipleRoundTrip) {
  const auto input = block_split_input(1u << 20);
  const auto compressed = lossless_compress(input);
  ASSERT_FALSE(compressed.empty());
  EXPECT_EQ(compressed[0], 4);
  EXPECT_EQ(lossless_decompress(compressed), input);
}

TEST(Lossless, BlockSplitThreadCountInvariant) {
  const auto input = block_split_input((1u << 20) + 777);
  const int saved = hardware_threads();
  set_thread_count(1);
  const auto serial = lossless_compress(input);
  set_thread_count(4);
  const auto parallel = lossless_compress(input);
  set_thread_count(saved);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(lossless_decompress(parallel), input);
}

TEST(Lossless, BlockSplitCorruptBlockThrows) {
  const auto input = block_split_input(1u << 20);
  auto compressed = lossless_compress(input);
  ASSERT_EQ(compressed[0], 4);
  // Flip a byte deep inside a block payload: either the inner frame's CRC
  // or the outer whole-payload CRC must reject it.
  compressed[compressed.size() / 2] ^= 0xFF;
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, BlockSplitTruncatedThrows) {
  const auto input = block_split_input(1u << 20);
  auto compressed = lossless_compress(input);
  ASSERT_EQ(compressed[0], 4);
  compressed.resize(compressed.size() - compressed.size() / 4);
  EXPECT_THROW(lossless_decompress(compressed), Error);
}

TEST(Lossless, BlockSplitScratchReuseMatches) {
  const auto input = block_split_input((1u << 20) + 4096);
  const auto reference = lossless_compress(input);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_compress_into(input, scratch, out);
  EXPECT_EQ(out, reference);
  // Second call through the same scratch (steady state) must not drift.
  lossless_compress_into(input, scratch, out);
  EXPECT_EQ(out, reference);
  std::vector<std::uint8_t> round;
  lossless_decompress_into(out, scratch, round);
  EXPECT_EQ(round, input);
}

TEST(Lossless, FloatPayloadRoundTrip) {
  // The real use: serialized quantization streams.
  Rng rng(6);
  std::vector<float> values(20000);
  for (auto& v : values) {
    v = static_cast<float>(rng.normal() * 0.01 + 280.0);
  }
  std::vector<std::uint8_t> input(values.size() * sizeof(float));
  std::memcpy(input.data(), values.data(), input.size());
  expect_roundtrip(input);
}

// --- hostile section counts ----------------------------------------------

TEST(Lossless, HostileSectionCountIsCorruptStream) {
  // An LZ frame whose literal section declares 2^38 symbols over a 1-byte
  // payload. Every Huffman code is at least 1 bit long, so the count is
  // refused as a corrupt stream before any buffer is sized for it.
  ByteWriter table;
  table.put_varint(1);  // one symbol
  table.put_varint(0);  // symbol 0
  table.put_varint(1);  // code length 1
  const std::uint8_t payload[1] = {0};
  ByteWriter frame;
  frame.put_u8(3);                 // LZ mode with CRC
  frame.put_varint(16);            // declared output size
  frame.put(std::uint32_t{0});     // payload CRC
  frame.put_varint(16);            // op count
  frame.put_block(std::span<const std::uint8_t>());  // flags
  frame.put_u8(1);                 // literal section: Huffman
  frame.put_varint(std::uint64_t{1} << 38);
  frame.put_block(table.bytes());
  frame.put_block(payload);
  try {
    (void)lossless_decompress(frame.bytes());
    FAIL() << "hostile section count accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStream) << e.what();
  }
}

// --- LZ matcher: scratch reuse, epochs and the window ------------------------

/// Reads the op count (literals + matches) from a single-block LZ frame.
std::uint64_t lz_op_count(const std::vector<std::uint8_t>& frame) {
  ByteReader r(frame);
  EXPECT_EQ(r.get_u8(), 3) << "expected an LZ frame";
  (void)r.get_varint();
  (void)r.get<std::uint32_t>();
  return r.get_varint();
}

/// De Bruijn sequence B(16, 4): 65,536 bytes over the values 0..15 in
/// which every 4-byte string occurs at most once, so the matcher finds no
/// match inside it, while Huffman still halves the literals (LZ mode wins
/// over stored).
std::vector<std::uint8_t> de_bruijn_16_4() {
  constexpr int k = 16;
  constexpr int n = 4;
  std::vector<std::uint8_t> seq;
  std::vector<int> a(k * n, 0);
  // Lyndon-word recursion (Ruskey's algorithm).
  const auto db = [&](auto&& self, int t, int p) -> void {
    if (t > n) {
      if (n % p == 0) {
        for (int j = 1; j <= p; ++j) {
          seq.push_back(static_cast<std::uint8_t>(a[j]));
        }
      }
      return;
    }
    a[t] = a[t - p];
    self(self, t + 1, p);
    for (int j = a[t - p] + 1; j < k; ++j) {
      a[t] = j;
      self(self, t + 1, t);
    }
  };
  db(db, 1, 1);
  return seq;
}

/// Mixed inputs whose content repeats across calls, so a stale hash entry
/// from an earlier call would point at a plausible match.
std::vector<std::uint8_t> reuse_input(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = (i / 40) % 2 == 0
                   ? static_cast<std::uint8_t>(i % 29)
                   : static_cast<std::uint8_t>(rng.uniform_index(12));
  }
  return input;
}

TEST(Lossless, ScratchReuseAcrossSizesMatchesFresh) {
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  std::uint64_t seed = 1;
  for (const std::size_t n :
       {std::size_t{100000}, std::size_t{10}, std::size_t{70000},
        std::size_t{300}, std::size_t{900000}, std::size_t{3},
        (std::size_t{1} << 20) + 999, std::size_t{5000},
        std::size_t{100000}}) {
    const auto input = reuse_input(n, seed++);
    lossless_compress_into(input, scratch, out);
    EXPECT_EQ(out, lossless_compress(input)) << "n = " << n;
    EXPECT_EQ(lossless_decompress(out), input) << "n = " << n;
  }
}

TEST(Lossless, EpochWrapMatchesFresh) {
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  // Two inputs, alternated so each call's stale entries point into
  // different bytes.
  const auto a = reuse_input(70000, 9);
  const auto b = reuse_input(60000, 10);
  const auto n = static_cast<std::uint32_t>(a.size());
  const auto ref_a = lossless_compress(a);
  const auto ref_b = lossless_compress(b);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_compress_into(a, scratch, out);
  ASSERT_EQ(out, ref_a);
  // Epoch 0 (reserved for empty entries, so the table must be cleared)
  // right after a call that stored positions from 1 up; then epochs raised
  // to where the next call's positions end exactly at 2^32 - 2, and to
  // where they would pass 2^32 - 1 (the table is cleared and the epoch
  // restarts).
  for (const std::uint32_t epoch :
       {std::uint32_t{0}, kMax - n, kMax - n + 1, kMax - 16, kMax}) {
    scratch.lz_epoch = epoch;
    lossless_compress_into(b, scratch, out);
    EXPECT_EQ(out, ref_b) << "epoch " << epoch;
    lossless_compress_into(a, scratch, out);
    EXPECT_EQ(out, ref_a) << "after epoch " << epoch;
  }
}

TEST(Lossless, MatchAtExactlyTheWindowDistance) {
  const auto base = de_bruijn_16_4();
  ASSERT_EQ(base.size(), std::size_t{1} << 16);
  // A copy of the first 64 bytes right after the sequence sits 65,536
  // bytes from its source: the largest distance the matcher follows. One
  // separator byte more puts it out of reach, so all 64 bytes stay
  // literals.
  auto at_window = base;
  at_window.insert(at_window.end(), base.begin(), base.begin() + 64);
  auto past_window = base;
  past_window.push_back(0xFF);
  past_window.insert(past_window.end(), base.begin(), base.begin() + 64);

  const auto a = lossless_compress(at_window);
  const auto b = lossless_compress(past_window);
  EXPECT_EQ(lz_op_count(a), base.size() + 1);
  EXPECT_EQ(lz_op_count(b), base.size() + 1 + 64);
  EXPECT_EQ(lossless_decompress(a), at_window);
  EXPECT_EQ(lossless_decompress(b), past_window);
}

TEST(Lossless, MatchesEndingMidWordAreExact) {
  // Copies of 4..40 bytes from distinct places of the de Bruijn sequence,
  // then one of 13 bytes that runs to the end of the input. Each copy
  // follows its own separator byte (outside 0..15, used once), so no
  // 4-byte string that touches a copy's edge occurs anywhere else. Every
  // copy must come out as a single match of exactly its length: a short
  // match leaves its tail as extra ops, and a long one would fail the
  // round trip.
  const auto base = de_bruijn_16_4();
  auto input = base;
  std::size_t copies = 0;
  const auto copy = [&](std::size_t src, std::size_t len) {
    input.push_back(static_cast<std::uint8_t>(0x80 + copies++));
    input.insert(input.end(), base.begin() + static_cast<std::ptrdiff_t>(src),
                 base.begin() + static_cast<std::ptrdiff_t>(src + len));
  };
  for (std::size_t len = 4; len <= 40; ++len) copy(60000 + 100 * len, len);
  copy(64500, 13);
  const auto frame = lossless_compress(input);
  // Literals: the sequence and the separators; one match per copy.
  EXPECT_EQ(lz_op_count(frame), base.size() + 2 * copies);
  EXPECT_EQ(lossless_decompress(frame), input);
}

// --- sectioned container (mode 6) -------------------------------------------
// CliZ streams cut the payload into their header (with the mask) and the
// entropy-coded body. A section is LZ-parsed only when a single-probe
// match scan plus its Huffman size estimate a saving of 1/16 of it; the
// rest is stored unparsed, and neighbours judged alike merge.

std::vector<std::uint8_t> sections_frame(const std::vector<std::uint8_t>& in,
                                         std::span<const std::size_t> cuts) {
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  lossless_compress_sections_into(in, cuts, scratch, out);
  return out;
}

/// A run-heavy prefix of `head` bytes (a header and mask) followed by
/// `body` uniformly random bytes (an entropy-coded payload).
std::vector<std::uint8_t> header_then_body(std::size_t head, std::size_t body,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(head + body);
  for (std::size_t i = 0; i < head; ++i) {
    v[i] = (i / 37) % 2 == 0 ? 0xFF : static_cast<std::uint8_t>(i % 5);
  }
  for (std::size_t i = head; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  return v;
}

TEST(LosslessSections, HeaderIsCodedAndBodyStored) {
  const auto in = header_then_body(3000, 20000, 7);
  const std::size_t cuts[] = {3000};
  const auto frame = sections_frame(in, cuts);
  const LosslessFrameInfo info = describe_lossless_frame(frame);
  EXPECT_EQ(info.mode, 6u);
  EXPECT_EQ(info.raw_bytes, in.size());
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[0].mode, 3u);
  EXPECT_EQ(info.sections[0].raw_bytes, 3000u);
  EXPECT_LT(info.sections[0].coded_bytes, 300u);
  EXPECT_EQ(info.sections[1].mode, 2u);
  EXPECT_EQ(info.sections[1].raw_bytes, 20000u);
  EXPECT_EQ(lossless_decompress(frame), in);
}

TEST(LosslessSections, AllWorthParsingIsTheWholeBufferFrame) {
  // A body of 16 byte values has few matches but a Huffman code of half
  // its size, so it is parsed like the header; the two merge into the
  // whole-buffer frame, byte for byte.
  auto in = header_then_body(3000, 20000, 11);
  Rng rng(12);
  for (std::size_t i = 3000; i < in.size(); ++i) {
    in[i] = static_cast<std::uint8_t>(rng.next_u64() % 16);
  }
  const std::size_t cuts[] = {3000};
  const auto frame = sections_frame(in, cuts);
  EXPECT_EQ(frame[0], 3u);
  EXPECT_EQ(frame, lossless_compress(in));
  EXPECT_EQ(lossless_decompress(frame), in);
}

TEST(LosslessSections, NothingToParseIsOneStoredFrame) {
  // No section has matches worth a parse: the frame is the plain stored
  // frame of the whole payload, whatever the cuts.
  const auto in = header_then_body(0, 30000, 8);
  const auto whole = lossless_compress(in);
  ASSERT_EQ(whole[0], 2u);
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{}, std::vector<std::size_t>{0, 100},
        std::vector<std::size_t>{5000, 5000, 29999}}) {
    EXPECT_EQ(sections_frame(in, cuts), whole);
  }
  const std::vector<std::uint8_t> empty;
  const std::size_t cut[] = {0};
  EXPECT_EQ(sections_frame(empty, cut), lossless_compress(empty));
  EXPECT_TRUE(lossless_decompress(sections_frame(empty, cut)).empty());
}

TEST(LosslessSections, CutsMustAscendWithinThePayload) {
  const auto in = header_then_body(100, 100, 9);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (const std::vector<std::size_t>& cuts :
       {std::vector<std::size_t>{50, 20}, std::vector<std::size_t>{201}}) {
    try {
      lossless_compress_sections_into(in, cuts, scratch, out);
      ADD_FAILURE() << "bad cuts accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadArgument) << e.what();
    }
  }
}

/// Mixed content whose kind changes every few hundred bytes: runs,
/// repeats of an earlier stretch, and random bytes.
std::vector<std::uint8_t> patchwork(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t len = std::min(n - i, 1 + rng.uniform_index(700));
    const std::size_t kind = rng.uniform_index(3);
    for (std::size_t k = 0; k < len; ++k, ++i) {
      if (kind == 0) {
        v[i] = static_cast<std::uint8_t>(len);
      } else if (kind == 1 && i >= 300) {
        v[i] = v[i - 300];
      } else {
        v[i] = static_cast<std::uint8_t>(rng.next_u64());
      }
    }
  }
  return v;
}

TEST(LosslessSections, RandomCutsRoundTrip) {
  // Random sizes and cut sets, 0 and n included; one scratch reused across
  // every call must give the bytes of a fresh one.
  Rng rng(31);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (int trial = 0; trial < 80; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t sizes[] = {1, 3, 4, 17, 600, 5000, 70000};
    const std::size_t n = trial % 2 == 0 ? sizes[rng.uniform_index(7)]
                                         : 1 + rng.uniform_index(20000);
    const auto in = patchwork(n, rng);
    std::vector<std::size_t> cuts;
    const std::size_t n_cuts = rng.uniform_index(5);
    for (std::size_t c = 0; c < n_cuts; ++c) {
      cuts.push_back(rng.uniform_index(n + 1));
    }
    if (trial % 5 == 0) cuts.push_back(0);
    if (trial % 7 == 0) cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());

    lossless_compress_sections_into(in, cuts, scratch, out);
    EXPECT_EQ(out, sections_frame(in, cuts));
    EXPECT_EQ(lossless_decompress(out), in);
    const LosslessFrameInfo info = describe_lossless_frame(out);
    EXPECT_EQ(info.raw_bytes, n);
    if (info.mode == 6u) {
      // Neighbouring sections judged alike merge, so there are at least
      // two sections and at most one per non-empty cut section.
      std::size_t non_empty = 0;
      std::size_t prev = 0;
      for (const std::size_t c : cuts) {
        if (c > prev) ++non_empty;
        prev = c;
      }
      if (n > prev) ++non_empty;
      EXPECT_GE(info.sections.size(), 2u);
      EXPECT_LE(info.sections.size(), non_empty);
      std::uint64_t total = 0;
      for (const auto& sec : info.sections) total += sec.raw_bytes;
      EXPECT_EQ(total, n);
    } else {
      EXPECT_TRUE(info.mode == 2u || info.mode == 3u) << int{info.mode};
    }
  }
}

TEST(LosslessSections, ScanEpochWrapMatchesFresh) {
  // The match scan draws its positions from the same epoch as the parse.
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  const auto in = header_then_body(40000, 30000, 10);
  const std::size_t cuts[] = {40000};
  const auto reference = sections_frame(in, cuts);
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (const std::uint32_t epoch :
       {std::uint32_t{0}, kMax - 70000, kMax - 39999, kMax - 16, kMax}) {
    scratch.lz_epoch = epoch;
    lossless_compress_sections_into(in, cuts, scratch, out);
    EXPECT_EQ(out, reference) << "epoch " << epoch;
  }
}

TEST(LosslessSections, BlockSplitSectionRoundTripsAtAnyThreadCount) {
  // A compressible section past the split threshold is carried as a
  // block-split frame inside the sectioned one.
  auto in = header_then_body(0, 100, 11);
  const auto body = block_split_input((1u << 20) + 5000);
  in.insert(in.end(), body.begin(), body.end());
  const std::size_t cuts[] = {100};
  const int saved = hardware_threads();
  set_thread_count(1);
  const auto serial = sections_frame(in, cuts);
  set_thread_count(4);
  const auto parallel = sections_frame(in, cuts);
  EXPECT_EQ(lossless_decompress(parallel), in);
  set_thread_count(saved);
  EXPECT_EQ(parallel, serial);
  const LosslessFrameInfo info = describe_lossless_frame(serial);
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[0].mode, 2u);
  EXPECT_EQ(info.sections[1].mode, 4u);
}

TEST(LosslessSections, CorruptSectionsThrow) {
  const auto in = header_then_body(3000, 20000, 12);
  const std::size_t cuts[] = {3000};
  const auto frame = sections_frame(in, cuts);
  ASSERT_EQ(frame[0], 6u);
  // A flip in the stored body, one in the LZ-coded section, and every
  // truncation point of the heads.
  for (const std::size_t pos : {frame.size() - 10, std::size_t{20}}) {
    auto bad = frame;
    bad[pos] ^= 0x10;
    EXPECT_THROW(lossless_decompress(bad), Error) << "flip at " << pos;
  }
  for (std::size_t len = 0; len < 40; ++len) {
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(lossless_decompress(cut), Error) << "cut at " << len;
  }
}

}  // namespace
}  // namespace cliz
