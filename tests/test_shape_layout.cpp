#include <gtest/gtest.h>

#include "src/ndarray/layout.hpp"
#include "src/ndarray/ndarray.hpp"
#include "src/ndarray/shape.hpp"

namespace cliz {
namespace {

TEST(Shape, RowMajorStrides) {
  const Shape s({4, 5, 6});
  EXPECT_EQ(s.size(), 120u);
  EXPECT_EQ(s.stride(0), 30u);
  EXPECT_EQ(s.stride(1), 6u);
  EXPECT_EQ(s.stride(2), 1u);
}

TEST(Shape, OffsetCoordsInverse) {
  const Shape s({3, 7, 5});
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = s.coords(i);
    EXPECT_EQ(s.offset(c), i);
  }
}

TEST(Shape, RejectsEmptyAndZeroExtent) {
  EXPECT_THROW(Shape(DimVec{}), Error);
  EXPECT_THROW(Shape(DimVec{3, 0, 2}), Error);
}

TEST(Shape, OutOfRangeCoordinateThrows) {
  const Shape s({2, 2});
  const DimVec bad{2, 0};
  EXPECT_THROW((void)s.offset(bad), Error);
  EXPECT_THROW((void)s.coords(4), Error);
}

TEST(Shape, ToStringFormat) {
  EXPECT_EQ(Shape({26, 1800, 3600}).to_string(), "(26x1800x3600)");
}

TEST(NdArray, AtMatchesFlatIndexing) {
  NdArray<float> a(Shape({2, 3, 4}));
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i);
  EXPECT_EQ(a.at({1, 2, 3}), 23.0f);
  EXPECT_EQ(a.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(a.at({1, 0, 2}), 14.0f);
}

TEST(NdArray, DataVectorSizeValidated) {
  EXPECT_THROW(NdArray<float>(Shape({2, 2}), std::vector<float>(3)), Error);
}

TEST(Fusion, NoneKeepsEveryDim) {
  const auto f = FusionSpec::none(3);
  EXPECT_EQ(f.ngroups(), 3u);
  EXPECT_EQ(f.label(), "no");
}

TEST(Fusion, LabelsMatchPaperStyle) {
  const FusionSpec f01({{0, 1}, {2, 2}});
  EXPECT_EQ(f01.label(), "0&1");
  const FusionSpec f12({{0, 0}, {1, 2}});
  EXPECT_EQ(f12.label(), "1&2");
  const FusionSpec fall({{0, 2}});
  EXPECT_EQ(fall.label(), "0&1&2");
}

TEST(Fusion, RejectsNonTilingGroups) {
  EXPECT_THROW(FusionSpec({{0, 0}, {2, 2}}), Error);   // gap
  EXPECT_THROW(FusionSpec({{1, 2}}), Error);           // does not start at 0
  EXPECT_THROW(FusionSpec({{0, 1}, {1, 2}}), Error);   // overlap
}

TEST(Fusion, GroupOf) {
  const FusionSpec f({{0, 1}, {2, 2}});
  EXPECT_EQ(f.group_of(0), 0u);
  EXPECT_EQ(f.group_of(1), 0u);
  EXPECT_EQ(f.group_of(2), 1u);
}

TEST(Fusion, FusedAxesExtentAndStride) {
  const Shape s({4, 6, 5});
  const auto axes = fused_axes(s, FusionSpec({{0, 1}, {2, 2}}));
  ASSERT_EQ(axes.size(), 2u);
  EXPECT_EQ(axes[0].extent, 24u);
  EXPECT_EQ(axes[0].stride, 5u);  // stride of the last fused dim
  EXPECT_EQ(axes[1].extent, 5u);
  EXPECT_EQ(axes[1].stride, 1u);
}

TEST(Fusion, FullFusionIsFlat) {
  const Shape s({4, 6, 5});
  const auto axes = fused_axes(s, FusionSpec({{0, 2}}));
  ASSERT_EQ(axes.size(), 1u);
  EXPECT_EQ(axes[0].extent, 120u);
  EXPECT_EQ(axes[0].stride, 1u);
}

TEST(Fusion, FusedAxisOffsetsEnumerateAllPoints) {
  // A fused axis must walk exactly the same offsets as nested loops over
  // the member dims.
  const Shape s({3, 4, 5});
  const auto axes = fused_axes(s, FusionSpec({{0, 1}, {2, 2}}));
  std::vector<bool> seen(s.size(), false);
  for (std::size_t a = 0; a < axes[0].extent; ++a) {
    for (std::size_t b = 0; b < axes[1].extent; ++b) {
      const std::size_t off = a * axes[0].stride + b * axes[1].stride;
      ASSERT_LT(off, s.size());
      EXPECT_FALSE(seen[off]);
      seen[off] = true;
    }
  }
  for (const bool v : seen) EXPECT_TRUE(v);
}

TEST(Layout, AllFusionsCountIsTwoPowNMinusOne) {
  EXPECT_EQ(all_fusions(1).size(), 1u);
  EXPECT_EQ(all_fusions(2).size(), 2u);
  EXPECT_EQ(all_fusions(3).size(), 4u);  // paper's four fusion options
  EXPECT_EQ(all_fusions(4).size(), 8u);
}

TEST(Layout, AllPermutationsCount) {
  EXPECT_EQ(all_permutations(1).size(), 1u);
  EXPECT_EQ(all_permutations(3).size(), 6u);  // paper's six sequences
  EXPECT_EQ(all_permutations(4).size(), 24u);
}

TEST(Layout, PermLabel) {
  const std::vector<std::size_t> p{2, 0, 1};
  EXPECT_EQ(perm_label(p), "201");
}

TEST(Layout, InducedAxisOrderFollowsFirstAppearance) {
  // Paper combo: sequence "201" with fusion "1&2" -> the fused axis {1,2}
  // appears first (via dim 2), then axis {0}.
  const FusionSpec f({{0, 0}, {1, 2}});
  const std::vector<std::size_t> perm{2, 0, 1};
  std::vector<std::size_t> order;
  induced_axis_order_into(f, perm, order);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 0u);
}

TEST(Layout, InducedAxisOrderIdentity) {
  const FusionSpec f = FusionSpec::none(3);
  const std::vector<std::size_t> perm{0, 1, 2};
  // Stale contents from an earlier call are replaced, not appended to.
  std::vector<std::size_t> order{7, 7, 7, 7};
  induced_axis_order_into(f, perm, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Layout, InducedAxisOrderRejectsIncompletePerm) {
  const FusionSpec f = FusionSpec::none(3);
  const std::vector<std::size_t> perm{0, 1};
  std::vector<std::size_t> order;
  EXPECT_THROW(induced_axis_order_into(f, perm, order), Error);
}

}  // namespace
}  // namespace cliz
