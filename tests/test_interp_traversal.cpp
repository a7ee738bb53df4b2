#include "src/predictor/interp_traversal.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "src/ndarray/layout.hpp"
#include "src/ndarray/shape.hpp"

namespace cliz {
namespace {

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> o(n);
  std::iota(o.begin(), o.end(), std::size_t{0});
  return o;
}

struct ShapeCase {
  DimVec dims;
};

class TraversalCoverage : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(TraversalCoverage, EveryNonAnchorPointVisitedExactlyOnce) {
  const Shape shape(GetParam().dims);
  const auto axes = fused_axes(shape, FusionSpec::none(shape.ndims()));
  const auto order = identity_order(shape.ndims());

  std::vector<int> visits(shape.size(), 0);
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t, std::size_t,
                      const InterpRefs&) {
                    ASSERT_LT(off, shape.size());
                    ++visits[off];
                  });
  EXPECT_EQ(visits[0], 0) << "anchor must not be visited";
  for (std::size_t i = 1; i < shape.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "offset " << i << " in " << shape.to_string();
  }
}

TEST_P(TraversalCoverage, ReferencesAlwaysPrecedeTargets) {
  const Shape shape(GetParam().dims);
  const auto axes = fused_axes(shape, FusionSpec::none(shape.ndims()));
  const auto order = identity_order(shape.ndims());

  std::set<std::size_t> known{0};  // anchor known from the start
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t, std::size_t,
                      const InterpRefs& refs) {
                    for (int i = 0; i < 4; ++i) {
                      if (refs.in_range[i]) {
                        EXPECT_TRUE(known.contains(refs.offset[i]))
                            << "target " << off << " references unknown "
                            << refs.offset[i];
                      }
                    }
                    known.insert(off);
                  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TraversalCoverage,
    ::testing::Values(ShapeCase{{2}}, ShapeCase{{3}}, ShapeCase{{17}},
                      ShapeCase{{64}}, ShapeCase{{5, 7}}, ShapeCase{{8, 8}},
                      ShapeCase{{1, 9}}, ShapeCase{{9, 1}},
                      ShapeCase{{4, 5, 6}}, ShapeCase{{7, 1, 3}},
                      ShapeCase{{2, 2, 2, 2}}, ShapeCase{{3, 4, 2, 5}},
                      ShapeCase{{31, 33}}, ShapeCase{{1, 1, 1}}));

TEST(Traversal, SinglePointHasNoTargets) {
  const Shape shape({1});
  const auto axes = fused_axes(shape, FusionSpec::none(1));
  const auto order = identity_order(1);
  std::size_t count = 0;
  interp_traverse(axes, order,
                  [&](std::size_t, std::size_t, std::size_t,
                      const InterpRefs&) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(Traversal, PassOrderChangesAxisSchedule) {
  const Shape shape({8, 8});
  const auto axes = fused_axes(shape, FusionSpec::none(2));
  const std::vector<std::size_t> fwd{0, 1};
  const std::vector<std::size_t> rev{1, 0};
  std::vector<std::size_t> axes_fwd;
  std::vector<std::size_t> axes_rev;
  interp_traverse(axes, fwd,
                  [&](std::size_t, std::size_t axis, std::size_t,
                      const InterpRefs&) { axes_fwd.push_back(axis); });
  interp_traverse(axes, rev,
                  [&](std::size_t, std::size_t axis, std::size_t,
                      const InterpRefs&) { axes_rev.push_back(axis); });
  EXPECT_EQ(axes_fwd.size(), axes_rev.size());
  EXPECT_NE(axes_fwd, axes_rev);
}

TEST(Traversal, LaterAxesInOrderGetMorePredictions) {
  // Paper VI-C: along the i-th dimension of the pass order, about
  // 2^(i-1)/(2^n - 1) of the predictions occur; the last axis dominates.
  const Shape shape({32, 32, 32});
  const auto axes = fused_axes(shape, FusionSpec::none(3));
  const auto order = identity_order(3);
  std::array<std::size_t, 3> counts{};
  interp_traverse(axes, order,
                  [&](std::size_t, std::size_t axis, std::size_t,
                      const InterpRefs&) { ++counts[axis]; });
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[1], counts[2]);
  // Roughly 1:2:4.
  EXPECT_NEAR(static_cast<double>(counts[1]) / static_cast<double>(counts[0]),
              2.0, 0.3);
  EXPECT_NEAR(static_cast<double>(counts[2]) / static_cast<double>(counts[1]),
              2.0, 0.3);
}

TEST(Traversal, ReferenceGeometryMatchesCoordinates) {
  const Shape shape({16, 16});
  const auto axes = fused_axes(shape, FusionSpec::none(2));
  const auto order = identity_order(2);
  interp_traverse(
      axes, order,
      [&](std::size_t off, std::size_t axis, std::size_t h,
          const InterpRefs& refs) {
        const auto c = shape.coords(off);
        // Target coordinate along the pass axis is an odd multiple of h.
        EXPECT_EQ((c[axis] / h) % 2, 1u);
        const std::ptrdiff_t pos[4] = {-3, -1, 1, 3};
        for (int i = 0; i < 4; ++i) {
          const auto want =
              static_cast<std::ptrdiff_t>(c[axis]) +
              pos[i] * static_cast<std::ptrdiff_t>(h);
          const bool in =
              want >= 0 &&
              want < static_cast<std::ptrdiff_t>(shape.dim(axis));
          EXPECT_EQ(refs.in_range[i], in);
          if (in) {
            auto rc = c;
            rc[axis] = static_cast<std::size_t>(want);
            EXPECT_EQ(refs.offset[i], shape.offset(rc));
          }
        }
      });
}

TEST(Traversal, FusedAxesCoverEveryOffset) {
  const Shape shape({4, 6, 5});
  const FusionSpec fusion({{0, 1}, {2, 2}});
  const auto axes = fused_axes(shape, fusion);
  const std::vector<std::size_t> order{0, 1};
  std::vector<int> visits(shape.size(), 0);
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t, std::size_t,
                      const InterpRefs&) { ++visits[off]; });
  EXPECT_EQ(visits[0], 0);
  for (std::size_t i = 1; i < shape.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "offset " << i;
  }
}

TEST(Traversal, PassVisitorCanRunPassTwice) {
  const Shape shape({8, 8});
  const auto axes = fused_axes(shape, FusionSpec::none(2));
  const auto order = identity_order(2);
  std::size_t first_run = 0;
  std::size_t second_run = 0;
  interp_traverse_passes(axes, order,
                         [&](std::size_t, std::size_t, std::size_t,
                             auto&& run) {
                           run([&](std::size_t, std::size_t, std::size_t,
                                   const InterpRefs&) { ++first_run; });
                           run([&](std::size_t, std::size_t, std::size_t,
                                   const InterpRefs&) { ++second_run; });
                         });
  EXPECT_EQ(first_run, shape.size() - 1);
  EXPECT_EQ(first_run, second_run);
}

TEST(Traversal, InvalidOrderThrows) {
  const Shape shape({4, 4});
  const auto axes = fused_axes(shape, FusionSpec::none(2));
  const std::vector<std::size_t> dup{0, 0};
  const std::vector<std::size_t> oob{0, 5};
  const auto noop = [](std::size_t, std::size_t, std::size_t,
                       const InterpRefs&) {};
  EXPECT_THROW(interp_traverse(axes, dup, noop), Error);
  EXPECT_THROW(interp_traverse(axes, oob, noop), Error);
}

}  // namespace
}  // namespace cliz
