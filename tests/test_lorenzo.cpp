#include "src/baselines/sz3/lorenzo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"
#include "src/baselines/sz3/sz3.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed,
                            double noise = 0.01) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 100.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += 3.0 * std::sin(0.07 * static_cast<double>(c[d]) +
                          static_cast<double>(d));
    }
    a[i] = static_cast<float>(v + noise * rng.normal());
  }
  return a;
}

struct LorenzoCase {
  DimVec dims;
  double eb;
};

class LorenzoRoundTrip : public ::testing::TestWithParam<LorenzoCase> {};

TEST_P(LorenzoRoundTrip, BoundHoldsEverywhere) {
  const auto& [dims, eb] = GetParam();
  const auto data = smooth_array(dims, 91);
  const auto stream = LorenzoCompressor().compress(data, eb);
  const auto recon = LorenzoCompressor::decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LorenzoRoundTrip,
    ::testing::Values(LorenzoCase{{200}, 1e-3}, LorenzoCase{{40, 44}, 1e-2},
                      LorenzoCase{{40, 44}, 1e-5},
                      LorenzoCase{{12, 14, 16}, 1e-3},
                      LorenzoCase{{5, 6, 7, 8}, 1e-3},
                      LorenzoCase{{1, 50}, 1e-3}));

TEST(Lorenzo, PredictionIsExactOnMultilinearFields) {
  // First-order Lorenzo reproduces f(x, y) = a + bx + cy + dxy exactly, so
  // such a field quantizes to all-zero bins (tiny stream).
  const Shape shape({32, 32});
  NdArray<float> data(shape);
  for (std::size_t x = 0; x < 32; ++x) {
    for (std::size_t y = 0; y < 32; ++y) {
      data[x * 32 + y] = static_cast<float>(
          2.0 + 0.5 * static_cast<double>(x) - 0.25 * static_cast<double>(y) +
          0.01 * static_cast<double>(x * y));
    }
  }
  const auto stream = LorenzoCompressor().compress(data, 1e-4);
  EXPECT_LT(stream.size(), 400u);
  const auto recon = LorenzoCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-4);
}

TEST(Lorenzo, ComparableToInterpolationOnWhiteNoise) {
  // On uncorrelated data with a tight bound neither predictor helps much;
  // both must land near the entropy floor rather than blowing up.
  const Shape shape({64, 64});
  NdArray<float> data(shape);
  Rng rng(92);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.normal());
  }
  const double eb = 1e-4;
  const auto lorenzo = LorenzoCompressor().compress(data, eb);
  const auto interp = Sz3Compressor().compress(data, eb);
  EXPECT_LE(lorenzo.size(), interp.size() + interp.size() / 10);
  EXPECT_LE(interp.size(), lorenzo.size() + lorenzo.size() / 10);
}

TEST(Lorenzo, InterpolationBeatsLorenzoOnSmoothData) {
  const auto data = smooth_array({48, 48}, 93, 0.0);
  const auto lorenzo = LorenzoCompressor().compress(data, 1e-3);
  const auto interp = Sz3Compressor().compress(data, 1e-3);
  EXPECT_LT(interp.size(), lorenzo.size());
}

TEST(Lorenzo, CorruptStreamThrows) {
  const auto data = smooth_array({16, 16}, 94);
  auto stream = LorenzoCompressor().compress(data, 1e-3);
  stream.resize(stream.size() / 2);
  EXPECT_THROW((void)LorenzoCompressor::decompress(stream), Error);
}

TEST(Lorenzo, DeterministicOutput) {
  const auto data = smooth_array({20, 20}, 95);
  EXPECT_EQ(LorenzoCompressor().compress(data, 1e-3),
            LorenzoCompressor().compress(data, 1e-3));
}

TEST(Lorenzo, RejectsNonPositiveBound) {
  const auto data = smooth_array({8}, 96);
  EXPECT_THROW((void)LorenzoCompressor().compress(data, 0.0), Error);
}

}  // namespace
}  // namespace cliz
