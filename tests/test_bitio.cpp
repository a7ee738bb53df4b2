#include "src/common/bitio.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"

namespace cliz {
namespace {

TEST(BitIo, SingleBitsRoundTrip) {
  BitWriter w;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (const bool b : pattern) w.put_bit(b);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const bool b : pattern) EXPECT_EQ(r.get_bit(), b);
}

TEST(BitIo, MultiBitFieldsRoundTrip) {
  BitWriter w;
  w.put_bits(0x5, 3);
  w.put_bits(0xABCD, 16);
  w.put_bits(0x1FFFFFFFFFFFFFull, 53);
  const auto bytes = w.finish();
  BitReader r(bytes);
  EXPECT_EQ(r.get_bits(3), 0x5u);
  EXPECT_EQ(r.get_bits(16), 0xABCDu);
  EXPECT_EQ(r.get_bits(53), 0x1FFFFFFFFFFFFFull);
}

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, RandomValuesRoundTrip) {
  const int width = GetParam();
  Rng rng(1234 + static_cast<std::uint64_t>(width));
  std::vector<std::uint64_t> values(200);
  const std::uint64_t mask =
      width == 64 ? ~0ull : (1ull << width) - 1;
  for (auto& v : values) v = rng.next_u64() & mask;

  BitWriter w;
  for (const auto v : values) w.put_bits(v, width);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (const auto v : values) EXPECT_EQ(r.get_bits(width), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitWidthSweep,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 15, 16, 17, 31,
                                           32, 33, 48, 57));

TEST(BitIo, BitCountTracksWrites) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  w.put_bits(0, 10);
  EXPECT_EQ(w.bit_count(), 10u);
  w.put_bits(0, 60);
  EXPECT_EQ(w.bit_count(), 70u);
}

TEST(BitIo, FinishPadsToByte) {
  BitWriter w;
  w.put_bit(true);
  const auto bytes = w.finish();
  EXPECT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);  // MSB-first
}

TEST(BitIo, ReadPastEndThrows) {
  BitWriter w;
  w.put_bits(0xFF, 8);
  const auto bytes = w.finish();
  BitReader r(bytes);
  r.get_bits(8);
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(BitIo, EmptyReaderThrowsImmediately) {
  BitReader r({});
  EXPECT_THROW(r.get_bit(), Error);
}

TEST(BitIo, LongStreamCrossesWordBoundaries) {
  Rng rng(99);
  std::vector<bool> bits(10000);
  for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.uniform() < 0.5;
  BitWriter w;
  for (const bool b : bits) w.put_bit(b);
  const auto bytes = w.finish();
  BitReader r(bytes);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(r.get_bit(), bits[i]) << "at bit " << i;
  }
}

TEST(BitIo, PutBitsMatchesBitByBitReference) {
  // Every field width 0..64, with junk above the width, written at every
  // accumulator fill level 0..63, must produce the bytes of writing the
  // same field one bit at a time (the writer's original loop).
  Rng rng(2024);
  for (unsigned fill = 0; fill < 64; ++fill) {
    for (int n = 0; n <= 64; ++n) {
      const std::uint64_t prefix = rng.next_u64();
      const std::uint64_t value = rng.next_u64();  // junk above bit n
      const std::uint64_t trailer = rng.next_u64();
      BitWriter fast;
      BitWriter slow;
      for (unsigned i = 0; i < fill; ++i) {
        fast.put_bit(((prefix >> i) & 1u) != 0);
        slow.put_bit(((prefix >> i) & 1u) != 0);
      }
      fast.put_bits(value, n);
      for (int i = n - 1; i >= 0; --i) slow.put_bit(((value >> i) & 1u) != 0);
      // A full word after the field checks what the field left in the
      // accumulator.
      fast.put_bits(trailer, 64);
      for (int i = 63; i >= 0; --i) slow.put_bit(((trailer >> i) & 1u) != 0);
      ASSERT_EQ(fast.bit_count(), slow.bit_count())
          << "fill " << fill << " n " << n;
      ASSERT_EQ(fast.finish(), slow.finish()) << "fill " << fill << " n " << n;
    }
  }
}

}  // namespace
}  // namespace cliz
