#include "src/core/mask.hpp"

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz {
namespace {

TEST(Mask, AllValid) {
  const auto m = MaskMap::all_valid(Shape({4, 5}));
  EXPECT_EQ(m.count_valid(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_TRUE(m.valid(i));
}

TEST(Mask, FromFillValuesDetectsHugeAndNonFinite) {
  NdArray<float> data(Shape({6}));
  data[0] = 1.0f;
  data[1] = 9.96921e36f;
  data[2] = -5.0f;
  data[3] = std::numeric_limits<float>::infinity();
  data[4] = std::numeric_limits<float>::quiet_NaN();
  data[5] = 1e29f;  // large but physical by default threshold
  const auto m = MaskMap::from_fill_values(data);
  EXPECT_TRUE(m.valid(0));
  EXPECT_FALSE(m.valid(1));
  EXPECT_TRUE(m.valid(2));
  EXPECT_FALSE(m.valid(3));
  EXPECT_FALSE(m.valid(4));
  EXPECT_TRUE(m.valid(5));
}

TEST(Mask, BroadcastTilesSpatialMask) {
  auto spatial = MaskMap::all_valid(Shape({2, 3}));
  spatial.mutable_data()[4] = 0;  // (1, 1)
  const auto full = MaskMap::broadcast(spatial, Shape({4, 2, 3}));
  EXPECT_EQ(full.count_valid(), 4u * 5u);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_FALSE(full.valid(t * 6 + 4));
    EXPECT_TRUE(full.valid(t * 6 + 3));
  }
}

TEST(Mask, BroadcastRejectsMismatchedSizes) {
  const auto spatial = MaskMap::all_valid(Shape({7}));
  EXPECT_THROW((void)MaskMap::broadcast(spatial, Shape({3, 5})), Error);
}

TEST(Mask, RleRoundTripRandom) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    auto m = MaskMap::all_valid(Shape({37, 23}));
    for (std::size_t i = 0; i < m.size(); ++i) {
      // Blocky randomness: realistic masks have long runs.
      m.mutable_data()[i] = rng.uniform() < 0.5 ? m.valid(i > 0 ? i - 1 : 0)
                                                : (rng.uniform() < 0.5 ? 1 : 0);
    }
    ByteWriter w;
    m.serialize(w);
    ByteReader r(w.bytes());
    const auto back = MaskMap::deserialize(r);
    EXPECT_EQ(back.shape(), m.shape());
    for (std::size_t i = 0; i < m.size(); ++i) {
      ASSERT_EQ(back.valid(i), m.valid(i)) << "seed " << seed << " i " << i;
    }
  }
}

TEST(Mask, RleRoundTripUniformMasks) {
  for (const std::uint8_t fill : {std::uint8_t{0}, std::uint8_t{1}}) {
    auto m = MaskMap::all_valid(Shape({100}));
    for (std::size_t i = 0; i < m.size(); ++i) m.mutable_data()[i] = fill;
    ByteWriter w;
    m.serialize(w);
    ByteReader r(w.bytes());
    const auto back = MaskMap::deserialize(r);
    for (std::size_t i = 0; i < m.size(); ++i) {
      EXPECT_EQ(back.valid(i), fill != 0);
    }
  }
}

TEST(Mask, RleIsCompactForCoherentMasks) {
  auto m = MaskMap::all_valid(Shape({1000, 100}));
  for (std::size_t i = 0; i < 50000; ++i) m.mutable_data()[i] = 0;
  ByteWriter w;
  m.serialize(w);
  EXPECT_LT(w.size(), 64u);  // two runs -> a handful of varints
}

TEST(Mask, DeserializeRejectsBadRuns) {
  ByteWriter w;
  w.put_varint(1);
  w.put_varint(10);  // shape (10)
  w.put_u8(1);
  w.put_varint(20);  // run longer than the shape
  w.put_varint(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)MaskMap::deserialize(r), Error);
}

TEST(Mask, DeserializeRejectsShortRuns) {
  ByteWriter w;
  w.put_varint(1);
  w.put_varint(10);
  w.put_u8(1);
  w.put_varint(4);  // only covers 4 of 10
  w.put_varint(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)MaskMap::deserialize(r), Error);
}

TEST(Mask, CropExtractsRegion) {
  auto m = MaskMap::all_valid(Shape({6, 8}));
  m.mutable_data()[1 * 8 + 2] = 0;
  m.mutable_data()[2 * 8 + 3] = 0;
  const DimVec start{1, 2};
  const auto sub = m.crop(start, Shape({2, 3}));
  // sub(0,0) = m(1,2) = 0; sub(1,1) = m(2,3) = 0; others 1.
  EXPECT_FALSE(sub.valid(0));
  EXPECT_TRUE(sub.valid(1));
  EXPECT_FALSE(sub.valid(1 * 3 + 1));
  EXPECT_EQ(sub.count_valid(), 4u);
}

TEST(Mask, CropOutOfRangeThrows) {
  const auto m = MaskMap::all_valid(Shape({4, 4}));
  const DimVec start{3, 0};
  EXPECT_THROW((void)m.crop(start, Shape({2, 2})), Error);
}

/// Point-by-point crop through Shape::offset: the reference for crop().
std::vector<std::uint8_t> crop_pointwise(const MaskMap& m, const DimVec& start,
                                         const Shape& region) {
  std::vector<std::uint8_t> v;
  for (std::size_t i = 0; i < region.size(); ++i) {
    DimVec src = region.coords(i);
    for (std::size_t d = 0; d < src.size(); ++d) src[d] += start[d];
    v.push_back(m.data()[m.shape().offset(src)]);
  }
  return v;
}

TEST(Mask, CropMatchesPointwiseReference) {
  Rng rng(41);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t nd = 1 + rng.uniform_index(4);
    DimVec dims(nd);
    for (auto& d : dims) d = 1 + rng.uniform_index(9);
    const Shape shape(dims);
    auto m = MaskMap::all_valid(shape);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.mutable_data()[i] = rng.uniform_index(3) == 0 ? 0 : 1;
    }
    // Every other box ends on the far edge of each dimension.
    const bool far_edge = trial % 2 == 0;
    DimVec start(nd);
    DimVec extent(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      start[d] = rng.uniform_index(dims[d]);
      extent[d] = far_edge ? dims[d] - start[d]
                           : 1 + rng.uniform_index(dims[d] - start[d]);
    }
    const Shape region(extent);
    const auto sub = m.crop(start, region);
    EXPECT_EQ(sub.shape(), region) << "trial " << trial;
    const std::vector<std::uint8_t> got(sub.data(), sub.data() + sub.size());
    EXPECT_EQ(got, crop_pointwise(m, start, region)) << "trial " << trial;

    // One point past the far edge in any dimension is refused.
    const std::size_t d = rng.uniform_index(nd);
    DimVec over = extent;
    over[d] = dims[d] - start[d] + 1;
    EXPECT_THROW((void)m.crop(start, Shape(over)), Error) << "trial " << trial;
  }
}

}  // namespace
}  // namespace cliz
