#include "src/baselines/rate_control.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/cliz.hpp"
#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.08 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return a;
}

CompressFn cliz_fn(const NdArray<float>& data) {
  return [&data](double eb) {
    return ClizCompressor(PipelineConfig::defaults(data.shape().ndims()))
        .compress(data, eb);
  };
}

class PsnrTargets : public ::testing::TestWithParam<double> {};

TEST_P(PsnrTargets, HitsTargetWithinTolerance) {
  const double target = GetParam();
  const auto data = smooth_array({24, 26, 28}, 5);
  const auto result = compress_to_psnr(data, target, cliz_fn(data));
  // Achieved PSNR within a few percent of the target (dB scale).
  EXPECT_NEAR(result.achieved, target, target * 0.05);
  // The returned stream really decodes to that quality.
  const auto recon = decompress_any(result.stream);
  EXPECT_NEAR(error_stats(data.flat(), recon.flat()).psnr, result.achieved,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Targets, PsnrTargets,
                         ::testing::Values(50.0, 70.0, 90.0, 110.0));

class RatioTargets : public ::testing::TestWithParam<double> {};

TEST_P(RatioTargets, HitsTargetWithinTolerance) {
  const double target = GetParam();
  const auto data = smooth_array({32, 32, 16}, 6);
  const auto result = compress_to_ratio(data, target, cliz_fn(data));
  const double got =
      compression_ratio(data.size() * sizeof(float), result.stream.size());
  EXPECT_NEAR(got, target, target * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Targets, RatioTargets,
                         ::testing::Values(5.0, 10.0, 25.0));

TEST(RateControl, WorksAcrossCodecs) {
  const auto data = smooth_array({20, 20, 20}, 7);
  for (const auto& name : {"sz3", "qoz", "sz2"}) {
    auto comp = make_compressor(name);
    const auto result = compress_to_psnr(
        data, 80.0,
        [&](double eb) { return comp->compress(data, eb); });
    EXPECT_NEAR(result.achieved, 80.0, 6.0) << name;
  }
}

TEST(RateControl, MaskedPsnrTarget) {
  const auto field = make_ssh(0.1, 950);
  PipelineConfig config = PipelineConfig::defaults(3);
  const auto result = compress_to_psnr(
      field.data, 70.0,
      [&](double eb) {
        return ClizCompressor(config).compress(field.data, eb,
                                               field.mask_ptr());
      },
      field.mask_ptr());
  EXPECT_NEAR(result.achieved, 70.0, 5.0);
}

TEST(RateControl, ReportsIterationsAndBound) {
  const auto data = smooth_array({16, 16}, 8);
  const auto result = compress_to_ratio(data, 8.0, cliz_fn(data));
  EXPECT_GT(result.iterations, 0);
  EXPECT_GT(result.abs_error_bound, 0.0);
}

TEST(RateControl, InvalidArgumentsRejected) {
  const auto data = smooth_array({8, 8}, 9);
  EXPECT_THROW((void)compress_to_psnr(data, -1.0, cliz_fn(data)), Error);
  RateControlOptions bad;
  bad.bound_lo = 0.0;
  EXPECT_THROW((void)compress_to_ratio(data, 5.0, cliz_fn(data), bad),
               Error);
}

}  // namespace
}  // namespace cliz
