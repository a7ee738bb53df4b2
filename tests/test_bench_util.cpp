// Rate control for the iso-quality / iso-ratio comparisons:
// bench::bisect_to_target bisects the relative error bound until a codec
// run lands on a target PSNR or compression ratio (bench_transfer,
// bench_visual).
#include "bench/bench_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

ClimateField smooth_field(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  ClimateField f;
  f.name = "smooth";
  f.data = NdArray<float>(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.08 * static_cast<double>(c[d]));
    }
    f.data[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return f;
}

/// One codec run at a relative bound, as the benches calibrate it.
std::function<bench::RunResult(double)> run_at(Compressor& comp,
                                               const ClimateField& field) {
  return [&comp, &field](double rel) {
    const double eb =
        abs_bound_from_relative(field.data.flat(), rel, field.mask_ptr());
    return bench::run_codec(comp, field, eb, /*with_ssim=*/false);
  };
}

double psnr_of(const bench::RunResult& r) { return r.psnr; }
double ratio_of(const bench::RunResult& r) { return r.ratio(); }

class PsnrTargets : public ::testing::TestWithParam<double> {};

TEST_P(PsnrTargets, HitsTargetWithinTolerance) {
  const double target = GetParam();
  const auto field = smooth_field({24, 26, 28}, 5);
  auto comp = make_compressor("cliz");
  const auto r = bench::bisect_to_target(run_at(*comp, field), target,
                                         psnr_of, /*increasing=*/false);
  // Achieved PSNR within a few percent of the target (dB scale).
  EXPECT_NEAR(r.psnr, target, target * 0.05);
  // The returned run is a real codec run on the whole field.
  EXPECT_GT(r.compressed_bytes, 0u);
  EXPECT_EQ(r.original_bytes, field.data.size() * sizeof(float));
}

INSTANTIATE_TEST_SUITE_P(Targets, PsnrTargets,
                         ::testing::Values(50.0, 70.0, 90.0, 110.0));

class RatioTargets : public ::testing::TestWithParam<double> {};

TEST_P(RatioTargets, HitsTargetWithinTolerance) {
  const double target = GetParam();
  const auto field = smooth_field({32, 32, 16}, 6);
  auto comp = make_compressor("cliz");
  const auto r = bench::bisect_to_target(run_at(*comp, field), target,
                                         ratio_of, /*increasing=*/true);
  EXPECT_NEAR(r.ratio(), target, target * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Targets, RatioTargets,
                         ::testing::Values(5.0, 10.0, 25.0));

TEST(RateControl, WorksAcrossCodecs) {
  const auto field = smooth_field({20, 20, 20}, 7);
  for (const auto& name : {"sz3", "qoz", "sz2"}) {
    auto comp = make_compressor(name);
    const auto r = bench::bisect_to_target(run_at(*comp, field), 80.0,
                                           psnr_of, /*increasing=*/false);
    EXPECT_NEAR(r.psnr, 80.0, 6.0) << name;
  }
}

TEST(RateControl, MaskedPsnrTarget) {
  const auto field = make_ssh(0.1, 950);
  ASSERT_NE(field.mask_ptr(), nullptr);
  auto comp = make_compressor("cliz");
  comp->set_time_dim(field.time_dim);
  comp->set_mask(field.mask_ptr());
  // run_codec scores valid points only, so the target is the masked PSNR.
  const auto r = bench::bisect_to_target(run_at(*comp, field), 70.0,
                                         psnr_of, /*increasing=*/false);
  EXPECT_NEAR(r.psnr, 70.0, 5.0);
}

TEST(RateControl, StopsAtFirstRunWithinTolerance) {
  const auto field = smooth_field({16, 16}, 8);
  auto comp = make_compressor("cliz");
  const auto run = run_at(*comp, field);
  std::vector<double> ratios;
  const auto r = bench::bisect_to_target(
      [&](double rel) {
        auto res = run(rel);
        ratios.push_back(res.ratio());
        return res;
      },
      8.0, ratio_of, /*increasing=*/true);
  ASSERT_FALSE(ratios.empty());
  EXPECT_LT(ratios.size(), 18u);
  // The search ends on the run that met the tolerance and returns it.
  EXPECT_LE(std::abs(ratios.back() - 8.0) / 8.0, 0.03);
  EXPECT_EQ(r.ratio(), ratios.back());
}

TEST(RateControl, UnreachableTargetReturnsClosestRun) {
  // A synthetic metric that tops out near 140 dB at the smallest bound.
  std::vector<double> seen;
  const auto r = bench::bisect_to_target(
      [&](double rel) {
        bench::RunResult res;
        res.psnr = -20.0 * std::log10(rel);
        seen.push_back(res.psnr);
        return res;
      },
      500.0, psnr_of, /*increasing=*/false, 1e-7, 0.3, /*max_iter=*/12);
  ASSERT_EQ(seen.size(), 12u);
  double best = seen.front();
  for (const double p : seen) best = std::max(best, p);
  EXPECT_EQ(r.psnr, best);
  EXPECT_LT(r.psnr, 140.0 + 1e-9);
}

}  // namespace
}  // namespace cliz
