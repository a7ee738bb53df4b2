#include "src/core/bin_classify.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz {
namespace {

constexpr std::uint32_t kRadius = 1u << 15;

/// Builds (offsets, codes) for a single column repeated over snapshots.
struct Stream {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> codes;

  void add(std::size_t column, std::size_t plane, int bin, int count) {
    for (int i = 0; i < count; ++i) {
      offsets.push_back(offsets.size() * plane + column);
      codes.push_back(static_cast<std::uint32_t>(
          static_cast<std::int64_t>(kRadius) + bin));
    }
  }
};

TEST(BinClassify, DetectsPositiveShift) {
  Stream s;
  const std::size_t plane = 4;
  s.add(0, plane, 1, 80);   // column 0 peaks at bin +1
  s.add(0, plane, 0, 10);
  s.add(1, plane, 0, 90);   // column 1 peaks at bin 0
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_EQ(c.shift_of(0), 1);
  EXPECT_EQ(c.shift_of(1), 0);
  EXPECT_FALSE(c.dispersed(0));
  EXPECT_FALSE(c.dispersed(1));
}

TEST(BinClassify, DetectsNegativeShift) {
  Stream s;
  const std::size_t plane = 2;
  s.add(1, plane, -1, 70);
  s.add(1, plane, 0, 20);
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_EQ(c.shift_of(1), -1);
}

TEST(BinClassify, DispersionBelowLambdaRoutesToSecondTree) {
  Stream s;
  const std::size_t plane = 2;
  // Column 0: peak frequency 30/100 < 0.4 -> dispersed.
  s.add(0, plane, 0, 30);
  s.add(0, plane, 2, 25);
  s.add(0, plane, -3, 25);
  s.add(0, plane, 5, 20);
  // Column 1: peak frequency 0.9 -> peaked.
  s.add(1, plane, 0, 90);
  s.add(1, plane, 1, 10);
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_TRUE(c.dispersed(0));
  EXPECT_FALSE(c.dispersed(1));
}

TEST(BinClassify, LambdaBoundaryIsExclusive) {
  // Peak exactly at 0.4 must NOT be dispersed (threshold is strict <).
  Stream s;
  const std::size_t plane = 1;
  s.add(0, plane, 0, 40);
  s.add(0, plane, 3, 30);
  s.add(0, plane, -4, 30);
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_FALSE(c.dispersed(0));
}

TEST(BinClassify, OutlierEscapesIgnoredInStatistics) {
  Stream s;
  const std::size_t plane = 1;
  s.add(0, plane, 1, 10);
  // Outlier escapes (code 0) must not count toward any bin.
  for (int i = 0; i < 50; ++i) {
    s.offsets.push_back(s.offsets.size());
    s.codes.push_back(0);
  }
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_EQ(c.shift_of(0), 1);
  EXPECT_FALSE(c.dispersed(0));  // 10/10 of the non-outlier codes peak at +1
}

TEST(BinClassify, EmptyColumnDefaultsToNoShiftPeaked) {
  Stream s;
  const std::size_t plane = 3;
  s.add(0, plane, 0, 5);
  // Columns 1 and 2 receive nothing.
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_EQ(c.shift_of(1), 0);
  EXPECT_FALSE(c.dispersed(1));
  EXPECT_EQ(c.shift_of(2), 0);
}

TEST(BinClassify, SerializeRoundTrip) {
  Stream s;
  const std::size_t plane = 8;
  Rng rng(3);
  for (std::size_t col = 0; col < plane; ++col) {
    s.add(col, plane, static_cast<int>(rng.uniform_index(3)) - 1,
          20 + static_cast<int>(rng.uniform_index(50)));
    s.add(col, plane, static_cast<int>(rng.uniform_index(9)) - 4,
          static_cast<int>(rng.uniform_index(60)));
  }
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  ByteWriter w;
  c.serialize(w);
  ByteReader r(w.bytes());
  const auto back = BinClassification::deserialize(r);
  ASSERT_EQ(back.plane_size(), plane);
  for (std::size_t col = 0; col < plane; ++col) {
    EXPECT_EQ(back.shift_of(col), c.shift_of(col));
    EXPECT_EQ(back.dispersed(col), c.dispersed(col));
  }
}

TEST(BinClassify, DeserializeRejectsCorruptEntries) {
  ByteWriter w;
  w.put_varint(2);
  w.put_u8(3);
  w.put_u8(7);  // valid entries are < 6
  ByteReader r(w.bytes());
  EXPECT_THROW((void)BinClassification::deserialize(r), Error);
}

TEST(BinClassify, MismatchedArityThrows) {
  std::vector<std::uint64_t> offsets(3);
  std::vector<std::uint32_t> codes(2);
  EXPECT_THROW(
      (void)BinClassification::build(offsets, codes, 2, kRadius), Error);
}

TEST(BinClassify, GeneralizedShiftRadiusDetectsWiderPeaks) {
  Stream s;
  const std::size_t plane = 3;
  s.add(0, plane, 2, 70);   // peak at +2: only found with j >= 2
  s.add(0, plane, 0, 20);
  s.add(1, plane, -2, 60);
  s.add(1, plane, 1, 30);
  s.add(2, plane, 0, 50);

  const auto c1 = BinClassification::build(s.offsets, s.codes, plane,
                                           kRadius, ClassifyParams{1, 1});
  EXPECT_EQ(c1.shift_of(0), 0);  // +2 invisible at j = 1

  const auto c2 = BinClassification::build(s.offsets, s.codes, plane,
                                           kRadius, ClassifyParams{2, 1});
  EXPECT_EQ(c2.shift_of(0), 2);
  EXPECT_EQ(c2.shift_of(1), -2);
  EXPECT_EQ(c2.shift_of(2), 0);
}

TEST(BinClassify, GeneralizedDispersionLevels) {
  Stream s;
  const std::size_t plane = 3;
  // Column 0: peak 0.9 -> group 0 at any k.
  s.add(0, plane, 0, 90);
  s.add(0, plane, 5, 10);
  // Column 1: peak 0.3 (in [0.2, 0.4)) -> group 1 with k = 2.
  s.add(1, plane, 0, 30);
  s.add(1, plane, 4, 25);
  s.add(1, plane, -5, 25);
  s.add(1, plane, 7, 20);
  // Column 2: peak 0.1 (< 0.2) -> group 2 with k = 2.
  s.add(2, plane, 0, 10);
  for (int b = 2; b <= 10; ++b) s.add(2, plane, b, 10);

  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius,
                                          ClassifyParams{1, 2});
  EXPECT_EQ(c.group_of(0), 0u);
  EXPECT_EQ(c.group_of(1), 1u);
  EXPECT_EQ(c.group_of(2), 2u);
  EXPECT_EQ(c.params().group_types(), 3u);
}

TEST(BinClassify, GeneralizedSerializeRoundTrip) {
  Stream s;
  const std::size_t plane = 6;
  Rng rng(9);
  for (std::size_t col = 0; col < plane; ++col) {
    s.add(col, plane, static_cast<int>(rng.uniform_index(5)) - 2, 40);
    s.add(col, plane, static_cast<int>(rng.uniform_index(11)) - 5,
          static_cast<int>(rng.uniform_index(80)));
  }
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius,
                                          ClassifyParams{2, 3});
  ByteWriter w;
  c.serialize(w);
  ByteReader r(w.bytes());
  const auto back = BinClassification::deserialize(r);
  EXPECT_EQ(back.params().j, 2u);
  EXPECT_EQ(back.params().k, 3u);
  for (std::size_t col = 0; col < plane; ++col) {
    EXPECT_EQ(back.shift_of(col), c.shift_of(col));
    EXPECT_EQ(back.group_of(col), c.group_of(col));
  }
}

TEST(BinClassify, OversizedParamsRejected) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> codes{kRadius};
  EXPECT_THROW((void)BinClassification::build(offsets, codes, 1, kRadius,
                                              ClassifyParams{9, 1}),
               Error);
  EXPECT_THROW((void)BinClassification::build(offsets, codes, 1, kRadius,
                                              ClassifyParams{1, 9}),
               Error);
}

TEST(BinClassify, ShiftsArePerColumn) {
  Stream s;
  const std::size_t plane = 3;
  s.add(0, plane, 1, 50);
  s.add(1, plane, -1, 50);
  s.add(2, plane, 0, 50);
  const auto c = BinClassification::build(s.offsets, s.codes, plane, kRadius);
  EXPECT_EQ(c.shift_of(0), 1);
  EXPECT_EQ(c.shift_of(1), -1);
  EXPECT_EQ(c.shift_of(2), 0);
}

}  // namespace
}  // namespace cliz
