#include "src/baselines/zfp/zfp_like.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

NdArray<float> wave_array(const DimVec& dims, std::uint64_t seed,
                          double noise = 0.01) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::cos(0.1 * static_cast<double>(c[d]) +
                    0.5 * static_cast<double>(d));
    }
    a[i] = static_cast<float>(v + noise * rng.normal());
  }
  return a;
}

struct ZfpCase {
  DimVec dims;
  double eb;
};

class ZfpRoundTrip : public ::testing::TestWithParam<ZfpCase> {};

TEST_P(ZfpRoundTrip, BoundHoldsEverywhere) {
  const auto& [dims, eb] = GetParam();
  const auto data = wave_array(dims, 41);
  const auto stream = ZfpLikeCompressor().compress(data, eb);
  const auto recon = ZfpLikeCompressor::decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ZfpRoundTrip,
    ::testing::Values(ZfpCase{{64}, 1e-2}, ZfpCase{{64}, 1e-5},
                      ZfpCase{{16, 16}, 1e-3},
                      // Partial blocks in every dimension.
                      ZfpCase{{17, 19}, 1e-3}, ZfpCase{{5, 6, 7}, 1e-3},
                      ZfpCase{{8, 12, 16}, 1e-1}, ZfpCase{{8, 12, 16}, 1e-6},
                      ZfpCase{{3, 4, 5, 6}, 1e-3}, ZfpCase{{1, 1, 9}, 1e-3},
                      ZfpCase{{2, 3}, 1e-4}));

TEST(ZfpLike, AllZeroBlocksAreNearlyFree) {
  NdArray<float> data(Shape({64, 64}));
  const auto stream = ZfpLikeCompressor().compress(data, 1e-3);
  EXPECT_LT(stream.size(), 200u);
  const auto recon = ZfpLikeCompressor::decompress(stream);
  for (std::size_t i = 0; i < recon.size(); ++i) EXPECT_EQ(recon[i], 0.0f);
}

TEST(ZfpLike, HugeFillValuesSurviveViaEscapes) {
  // Mask-style fill values next to small data: error bound must still
  // hold on every point, which for 1e36 neighbours means escapes/deep
  // planes — the weakness the paper exploits.
  const Shape shape({8, 8});
  NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = i % 3 == 0 ? 9.96921e36f : 1.5f;
  }
  const auto stream = ZfpLikeCompressor().compress(data, 1e-2);
  const auto recon = ZfpLikeCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-2);
}

TEST(ZfpLike, MaskedDataCostsFarMoreThanCleanData) {
  const Shape shape({32, 32});
  NdArray<float> clean(shape);
  NdArray<float> masked(shape);
  Rng rng(6);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const auto c = shape.coords(i);
    const float v = static_cast<float>(
        std::sin(0.1 * static_cast<double>(c[0])) +
        std::sin(0.1 * static_cast<double>(c[1])));
    clean[i] = v;
    masked[i] = (c[0] + c[1]) % 7 == 0 ? 9.96921e36f : v;
  }
  const auto s_clean = ZfpLikeCompressor().compress(clean, 1e-3);
  const auto s_masked = ZfpLikeCompressor().compress(masked, 1e-3);
  EXPECT_GT(s_masked.size(), 2 * s_clean.size());
}

TEST(ZfpLike, NonFiniteValuesRoundTripViaRawMode) {
  NdArray<float> data(Shape({4, 4}));
  data[0] = std::numeric_limits<float>::infinity();
  data[5] = -std::numeric_limits<float>::infinity();
  data[7] = 1.25f;
  const auto stream = ZfpLikeCompressor().compress(data, 1e-3);
  const auto recon = ZfpLikeCompressor::decompress(stream);
  EXPECT_EQ(recon[0], data[0]);
  EXPECT_EQ(recon[5], data[5]);
  EXPECT_NEAR(recon[7], 1.25f, 1e-3);
}

TEST(ZfpLike, NegativeValuesRoundTrip) {
  NdArray<float> data(Shape({16, 16}));
  Rng rng(8);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.uniform(-50.0, -10.0));
  }
  const auto stream = ZfpLikeCompressor().compress(data, 1e-3);
  const auto recon = ZfpLikeCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

TEST(ZfpLike, LooserBoundGivesSmallerStream) {
  const auto data = wave_array({32, 32, 32}, 9);
  const auto loose = ZfpLikeCompressor().compress(data, 1e-1);
  const auto tight = ZfpLikeCompressor().compress(data, 1e-5);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(ZfpLike, RejectsTooManyDims) {
  NdArray<float> data(Shape({2, 2, 2, 2, 2}));
  EXPECT_THROW((void)ZfpLikeCompressor().compress(data, 1e-3), Error);
}

TEST(ZfpLike, CorruptStreamThrows) {
  const auto data = wave_array({16, 16}, 3);
  auto stream = ZfpLikeCompressor().compress(data, 1e-3);
  stream.resize(stream.size() / 2);
  EXPECT_THROW((void)ZfpLikeCompressor::decompress(stream), Error);
}

TEST(ZfpLike, DeterministicOutput) {
  const auto data = wave_array({20, 24}, 10);
  EXPECT_EQ(ZfpLikeCompressor().compress(data, 1e-3),
            ZfpLikeCompressor().compress(data, 1e-3));
}

}  // namespace
}  // namespace cliz
