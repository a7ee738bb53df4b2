#include "src/baselines/sz3/sz3.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed,
                            double noise = 0.01) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 280.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += 5.0 * std::sin(0.08 * static_cast<double>(c[d]) +
                          static_cast<double>(d));
    }
    a[i] = static_cast<float>(v + noise * rng.normal());
  }
  return a;
}

struct Sz3Case {
  DimVec dims;
  double eb;
};

class Sz3RoundTrip : public ::testing::TestWithParam<Sz3Case> {};

TEST_P(Sz3RoundTrip, BoundHoldsEverywhere) {
  const auto& [dims, eb] = GetParam();
  const auto data = smooth_array(dims, 11);
  const Sz3Compressor codec;
  const auto stream = codec.compress(data, eb);
  const auto recon = Sz3Compressor::decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  const auto stats = error_stats(data.flat(), recon.flat());
  EXPECT_LE(stats.max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Sz3RoundTrip,
    ::testing::Values(Sz3Case{{100}, 1e-2}, Sz3Case{{100}, 1e-5},
                      Sz3Case{{48, 52}, 1e-2}, Sz3Case{{48, 52}, 1e-4},
                      Sz3Case{{16, 20, 24}, 1e-3},
                      Sz3Case{{16, 20, 24}, 1.0},
                      Sz3Case{{7, 9, 11}, 1e-2},
                      Sz3Case{{4, 5, 6, 7}, 1e-3},
                      Sz3Case{{1, 64}, 1e-3}, Sz3Case{{64, 1}, 1e-3}));

TEST(Sz3, SmoothDataCompressesWell) {
  const auto data = smooth_array({40, 40, 40}, 3, 0.0);
  const auto stream = Sz3Compressor().compress(data, 1e-3);
  const double ratio = compression_ratio(data.size() * 4, stream.size());
  EXPECT_GT(ratio, 8.0);
}

TEST(Sz3, RandomNoiseStillBounded) {
  const Shape shape({32, 32});
  NdArray<float> data(shape);
  Rng rng(4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.normal() * 100.0);
  }
  const auto stream = Sz3Compressor().compress(data, 0.5);
  const auto recon = Sz3Compressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 0.5);
}

TEST(Sz3, TighterBoundCostsMoreBits) {
  const auto data = smooth_array({32, 32, 32}, 5);
  const auto loose = Sz3Compressor().compress(data, 1e-1);
  const auto tight = Sz3Compressor().compress(data, 1e-4);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(Sz3, ForcedFittingRoundTrips) {
  const auto data = smooth_array({30, 30}, 6);
  for (const FittingKind fit : {FittingKind::kLinear, FittingKind::kCubic}) {
    Sz3Options opts;
    opts.force_fitting = true;
    opts.fitting = fit;
    const auto stream = Sz3Compressor(opts).compress(data, 1e-3);
    const auto recon = Sz3Compressor::decompress(stream);
    EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
  }
}

TEST(Sz3, ConstantFieldNearlyFree) {
  NdArray<float> data(Shape({64, 64}));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 42.0f;
  const auto stream = Sz3Compressor().compress(data, 1e-6);
  EXPECT_LT(stream.size(), 600u);
  const auto recon = Sz3Compressor::decompress(stream);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    EXPECT_NEAR(recon[i], 42.0f, 1e-6);
  }
}

TEST(Sz3, SinglePointArray) {
  NdArray<float> data(Shape({1}));
  data[0] = 3.5f;
  const auto stream = Sz3Compressor().compress(data, 1e-3);
  const auto recon = Sz3Compressor::decompress(stream);
  EXPECT_NEAR(recon[0], 3.5f, 1e-3);
}

TEST(Sz3, RejectsNonPositiveBound) {
  const auto data = smooth_array({8}, 1);
  EXPECT_THROW((void)Sz3Compressor().compress(data, 0.0), Error);
  EXPECT_THROW((void)Sz3Compressor().compress(data, -1.0), Error);
}

TEST(Sz3, CorruptStreamThrows) {
  const auto data = smooth_array({16, 16}, 2);
  auto stream = Sz3Compressor().compress(data, 1e-3);
  auto truncated = stream;
  truncated.resize(truncated.size() / 3);
  EXPECT_THROW((void)Sz3Compressor::decompress(truncated), Error);
  EXPECT_THROW((void)Sz3Compressor::decompress({}), Error);
}

TEST(Sz3, WrongMagicThrows) {
  std::vector<std::uint8_t> junk{'n', 'o', 't', 'a', 's', 't', 'r', 'e',
                                 'a', 'm'};
  EXPECT_THROW((void)Sz3Compressor::decompress(junk), Error);
}

TEST(Sz3, DeterministicOutput) {
  const auto data = smooth_array({20, 20}, 7);
  const auto a = Sz3Compressor().compress(data, 1e-3);
  const auto b = Sz3Compressor().compress(data, 1e-3);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cliz
