#include "src/metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/report.hpp"

namespace cliz {
namespace {

TEST(Metrics, IdenticalDataHasInfinitePsnrAndZeroError) {
  std::vector<float> a{1.0f, 2.0f, 3.0f, 4.0f};
  const auto s = error_stats(a, a);
  EXPECT_EQ(s.max_abs_error, 0.0);
  EXPECT_EQ(s.rmse, 0.0);
  EXPECT_TRUE(std::isinf(s.psnr));
  EXPECT_EQ(s.count, 4u);
}

TEST(Metrics, KnownRmseAndPsnr) {
  // Original range 10, constant error 1 -> RMSE 1, PSNR = 20 log10(10) = 20.
  std::vector<float> orig{0.0f, 10.0f};
  std::vector<float> recon{1.0f, 11.0f};
  const auto s = error_stats(orig, recon);
  EXPECT_DOUBLE_EQ(s.rmse, 1.0);
  EXPECT_DOUBLE_EQ(s.value_range, 10.0);
  EXPECT_NEAR(s.psnr, 20.0, 1e-12);
}

TEST(Metrics, MaxErrorIsMaximum) {
  std::vector<float> orig{0.0f, 0.0f, 0.0f};
  std::vector<float> recon{0.1f, -0.5f, 0.2f};
  EXPECT_NEAR(error_stats(orig, recon).max_abs_error, 0.5, 1e-6);
}

TEST(Metrics, MaskExcludesInvalidPoints) {
  const Shape shape({4});
  auto mask = MaskMap::all_valid(shape);
  mask.mutable_data()[1] = 0;
  std::vector<float> orig{1.0f, 9e36f, 2.0f, 3.0f};
  std::vector<float> recon{1.0f, 0.0f, 2.0f, 3.0f};
  const auto s = error_stats(orig, recon, &mask);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max_abs_error, 0.0);
  EXPECT_DOUBLE_EQ(s.value_range, 2.0);
}

TEST(Metrics, MismatchedSizesThrow) {
  std::vector<float> a(3);
  std::vector<float> b(4);
  EXPECT_THROW((void)error_stats(a, b), Error);
}

TEST(Metrics, SsimOfIdenticalDataIsOne) {
  const Shape shape({32, 32});
  NdArray<float> a(shape);
  Rng rng(1);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(0.0, 10.0));
  }
  EXPECT_NEAR(mean_ssim(a, a), 1.0, 1e-9);
}

TEST(Metrics, SsimDegradesWithNoise) {
  const Shape shape({64, 64});
  NdArray<float> a(shape);
  Rng rng(2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = a.shape().coords(i);
    a[i] = static_cast<float>(std::sin(0.2 * static_cast<double>(c[0])) +
                              std::cos(0.2 * static_cast<double>(c[1])));
  }
  NdArray<float> slightly = a;
  NdArray<float> badly = a;
  for (std::size_t i = 0; i < a.size(); ++i) {
    slightly[i] += static_cast<float>(0.01 * rng.normal());
    badly[i] += static_cast<float>(0.5 * rng.normal());
  }
  const double s_slight = mean_ssim(a, slightly);
  const double s_bad = mean_ssim(a, badly);
  EXPECT_GT(s_slight, s_bad);
  EXPECT_GT(s_slight, 0.95);
  EXPECT_LT(s_bad, 0.8);
}

TEST(Metrics, SsimSkipsMaskedWindows) {
  const Shape shape({16, 16});
  NdArray<float> a(shape);
  NdArray<float> b(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    b[i] = a[i];
  }
  // Corrupt a fully-masked region: SSIM must ignore it.
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      mask.mutable_data()[r * 16 + c] = 0;
      b[r * 16 + c] = 1e9f;
    }
  }
  EXPECT_NEAR(mean_ssim(a, b, &mask, 8, 8), 1.0, 1e-9);
}

TEST(Metrics, SsimOnThreeDimensionalDataAveragesSlices) {
  const Shape shape({3, 16, 16});
  NdArray<float> a(shape);
  Rng rng(4);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  EXPECT_NEAR(mean_ssim(a, a), 1.0, 1e-9);
}

TEST(Metrics, PearsonOfIdenticalDataIsOne) {
  Rng rng(5);
  std::vector<float> a(500);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  EXPECT_NEAR(pearson_correlation(a, a), 1.0, 1e-12);
}

TEST(Metrics, PearsonInvariantToAffineTransform) {
  Rng rng(6);
  std::vector<float> a(500);
  std::vector<float> b(500);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.normal());
    b[i] = 3.0f * a[i] + 7.0f;
  }
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-6);
  for (auto& v : b) v = -v;
  EXPECT_NEAR(pearson_correlation(a, b), -1.0, 1e-6);
}

TEST(Metrics, PearsonOfIndependentNoiseNearZero) {
  Rng rng(7);
  std::vector<float> a(20000);
  std::vector<float> b(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.normal());
    b[i] = static_cast<float>(rng.normal());
  }
  EXPECT_NEAR(pearson_correlation(a, b), 0.0, 0.03);
}

TEST(Metrics, PearsonRespectsMask) {
  const Shape shape({4});
  auto mask = MaskMap::all_valid(shape);
  mask.mutable_data()[3] = 0;
  // Valid points perfectly correlated; the masked one would wreck it.
  std::vector<float> a{1.0f, 2.0f, 3.0f, 1e30f};
  std::vector<float> b{2.0f, 4.0f, 6.0f, -1e30f};
  EXPECT_NEAR(pearson_correlation(a, b, &mask), 1.0, 1e-9);
}

TEST(Metrics, WassersteinOfIdenticalDistributionsIsZero) {
  Rng rng(8);
  std::vector<float> a(1000);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  // A permutation has the same distribution: W1 = 0.
  std::vector<float> b(a.rbegin(), a.rend());
  EXPECT_NEAR(wasserstein_distance(a, b), 0.0, 1e-9);
}

TEST(Metrics, WassersteinOfShiftedDistributionIsTheShift) {
  Rng rng(9);
  std::vector<float> a(1000);
  std::vector<float> b(1000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(0.0, 1.0));
    b[i] = a[i] + 0.25f;
  }
  EXPECT_NEAR(wasserstein_distance(a, b), 0.25, 1e-5);
}

TEST(Metrics, BitRateAndRatio) {
  // 1000 floats -> 500 bytes: 4 bits/value, ratio 8.
  EXPECT_DOUBLE_EQ(bit_rate(1000, 500), 4.0);
  EXPECT_DOUBLE_EQ(compression_ratio(4000, 500), 8.0);
}

TEST(Metrics, ValueRangeWithMask) {
  const Shape shape({3});
  auto mask = MaskMap::all_valid(shape);
  mask.mutable_data()[2] = 0;
  std::vector<float> data{1.0f, 5.0f, 1e30f};
  EXPECT_DOUBLE_EQ(value_range(data, &mask), 4.0);
  EXPECT_DOUBLE_EQ(value_range(data, nullptr),
                   static_cast<double>(1e30f) - 1.0);
}

TEST(Report, FullReportOnPerfectReconstruction) {
  const Shape shape({8, 8});
  NdArray<float> a(shape);
  Rng rng(20);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  const auto r = quality_report(a, a, nullptr, 0.01, 100);
  EXPECT_EQ(r.stats.max_abs_error, 0.0);
  EXPECT_TRUE(r.bound_satisfied);
  EXPECT_NEAR(r.pearson, 1.0, 1e-12);
  EXPECT_NEAR(r.ssim, 1.0, 1e-9);
  EXPECT_EQ(r.wasserstein, 0.0);
  // All errors land in the first histogram bucket.
  EXPECT_EQ(r.error_histogram[0], a.size());
  const auto text = r.to_text();
  // 64 floats = 256 bytes against the 100 compressed bytes supplied.
  EXPECT_NE(text.find("256 -> 100 bytes (2.56x"), std::string::npos);
  EXPECT_NE(text.find("SATISFIED"), std::string::npos);
  EXPECT_NE(text.find("PSNR"), std::string::npos);
}

TEST(Report, DetectsBoundViolation) {
  const Shape shape({2, 4});
  NdArray<float> a(shape);
  NdArray<float> b(shape);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(i) + 0.5f;
  }
  const auto r = quality_report(a, b, nullptr, 0.1);
  EXPECT_FALSE(r.bound_satisfied);
  EXPECT_NE(r.to_text().find("VIOLATED"), std::string::npos);
}

TEST(Report, HistogramCoversAllValidPoints) {
  const Shape shape({4, 25});
  NdArray<float> a(shape);
  NdArray<float> b(shape);
  Rng rng(21);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.0f;
    b[i] = static_cast<float>(rng.uniform(-0.01, 0.01));
  }
  const auto r = quality_report(a, b, nullptr, 0.01);
  const std::size_t total = std::accumulate(
      r.error_histogram.begin(), r.error_histogram.end(), std::size_t{0});
  EXPECT_EQ(total, a.size());
  // Uniform errors spread across buckets.
  std::size_t nonempty = 0;
  for (const std::size_t v : r.error_histogram) nonempty += v > 0 ? 1 : 0;
  EXPECT_GE(nonempty, 8u);
}

TEST(Report, MismatchedShapesThrow) {
  NdArray<float> a(Shape({4, 4}));
  NdArray<float> b(Shape({4, 5}));
  EXPECT_THROW((void)quality_report(a, b), Error);
}

TEST(Metrics, AbsBoundFromRelative) {
  std::vector<float> data{0.0f, 50.0f};
  EXPECT_DOUBLE_EQ(abs_bound_from_relative(data, 0.01), 0.5);
  // Constant field: falls back to the raw relative value.
  std::vector<float> flat{2.0f, 2.0f};
  EXPECT_DOUBLE_EQ(abs_bound_from_relative(flat, 0.01), 0.01);
  EXPECT_THROW((void)abs_bound_from_relative(data, 0.0), Error);
}

TEST(Metrics, RangeAndRelativeBoundSkipNonFinite) {
  // One Inf or NaN must not make the range, and with it a relative bound,
  // infinite: both sample types see only the finite values.
  const std::vector<float> f32{0.0f, std::numeric_limits<float>::infinity(),
                               50.0f, std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::infinity()};
  EXPECT_DOUBLE_EQ(value_range(f32), 50.0);
  EXPECT_DOUBLE_EQ(abs_bound_from_relative(f32, 0.01), 0.5);
  const std::vector<double> f64{0.0, std::numeric_limits<double>::infinity(),
                                50.0, std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::infinity()};
  EXPECT_DOUBLE_EQ(value_range(f64), 50.0);
  EXPECT_DOUBLE_EQ(abs_bound_from_relative(f64, 0.01), 0.5);
  // No finite value at all: the constant-field fallback.
  const std::vector<float> none{std::numeric_limits<float>::infinity()};
  EXPECT_DOUBLE_EQ(abs_bound_from_relative(none, 0.01), 0.01);
}

}  // namespace
}  // namespace cliz
