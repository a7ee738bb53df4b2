#include "src/core/autotune.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

TEST(Sampling, BlockSampleVolumeNearRate) {
  const Shape shape({60, 90, 120});
  NdArray<float> data(shape);
  for (const double rate : {0.1, 0.01, 0.001}) {
    const auto s = sample_blocks(data, nullptr, rate);
    const double got = static_cast<double>(s.data.size()) /
                       static_cast<double>(data.size());
    EXPECT_GT(got, rate / 8.0) << "rate " << rate;
    EXPECT_LT(got, rate * 8.0) << "rate " << rate;
  }
}

TEST(Sampling, BlockSampleCopiesActualValues) {
  const Shape shape({30, 30});
  NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i);
  }
  const auto s = sample_blocks(data, nullptr, 0.25);
  // Every sampled value must exist in the source.
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    const float v = s.data[i];
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, static_cast<float>(data.size()));
    EXPECT_EQ(v, std::floor(v));
  }
}

TEST(Sampling, MaskCroppedConsistentlyWithData) {
  const Shape shape({24, 24});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const bool valid = (i / 24 + i % 24) % 3 != 0;
    mask.mutable_data()[i] = valid ? 1 : 0;
    data[i] = valid ? static_cast<float>(i) : 9.9e36f;
  }
  const auto s = sample_blocks(data, &mask, 0.25);
  ASSERT_TRUE(s.mask.has_value());
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    if (s.mask->valid(i)) {
      EXPECT_LT(s.data[i], 1e6f);
    } else {
      EXPECT_GT(s.data[i], 1e30f);
    }
  }
}

TEST(Sampling, TimePreservingKeepsFullTimeExtent) {
  const Shape shape({48, 40, 40});
  NdArray<float> data(shape);
  const auto s = sample_time_preserving(data, nullptr, 0.05, 0);
  EXPECT_EQ(s.data.shape().dim(0), 48u);
  EXPECT_LT(s.data.shape().dim(1), 40u);
  const double got = static_cast<double>(s.data.size()) /
                     static_cast<double>(data.size());
  EXPECT_LT(got, 0.4);
}

TEST(Sampling, TimeRowsHaveFullLengthAndSkipMaskedRows) {
  const Shape shape({32, 8, 8});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  // Mask out half the columns entirely.
  for (std::size_t t = 0; t < 32; ++t) {
    for (std::size_t p = 0; p < 32; ++p) {
      mask.mutable_data()[t * 64 + p] = 0;
    }
  }
  const auto rows = sample_time_rows(data, &mask, 0, 8, 99);
  EXPECT_GE(rows.size(), 1u);
  for (const auto& r : rows) EXPECT_EQ(r.size(), 32u);
}

TEST(Sampling, InvalidRateThrows) {
  NdArray<float> data(Shape({8, 8}));
  EXPECT_THROW((void)sample_blocks(data, nullptr, 0.0), Error);
  EXPECT_THROW((void)sample_blocks(data, nullptr, 1.5), Error);
}

TEST(Autotune, SearchSpaceSizeMatchesPaper) {
  // SSH-like: periodic 3-D dataset -> 2 (period) x 2 (classify) x 6 (perm)
  // x 4 (fusion) x 2 (fitting) = 192 pipelines. Non-periodic -> 96.
  auto field = make_ssh(0.12, 500);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result =
      autotune(field.data, 1e-3, field.mask_ptr(), opts);
  ASSERT_TRUE(result.period.has_value());
  EXPECT_EQ(result.period->period, 12u);
  EXPECT_EQ(result.candidates.size(), 192u);
}

TEST(Autotune, NonPeriodicDatasetGetsHalfTheSpace) {
  auto field = make_hurricane_t(0.06, 501);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-2, nullptr, opts);
  EXPECT_FALSE(result.period.has_value());
  EXPECT_EQ(result.candidates.size(), 96u);
}

TEST(Autotune, CandidatesSortedByEstimatedRatio) {
  auto field = make_ssh(0.12, 502);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  for (std::size_t i = 1; i < result.candidates.size(); ++i) {
    EXPECT_GE(result.candidates[i - 1].estimated_ratio,
              result.candidates[i].estimated_ratio);
  }
  EXPECT_EQ(result.best_estimated_ratio,
            result.candidates.front().estimated_ratio);
}

TEST(Autotune, TogglesShrinkSearchSpace) {
  // The two remaining toggles drop the backend trials; the pipeline grid
  // stays the paper's whole space.
  auto field = make_ssh(0.12, 503);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  opts.consider_backends = false;
  opts.consider_predictors = false;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  EXPECT_EQ(result.candidates.size(), 192u);
  EXPECT_TRUE(result.predictor_candidates.empty());
  EXPECT_TRUE(result.backend_candidates.empty());
  EXPECT_EQ(result.best_predictor, PredictorBackend::kInterp);
  EXPECT_EQ(result.best_entropy, EntropyBackend::kHuffman);
}

TEST(Autotune, TwoDimensionalDataSkipsClassificationAndShortTimeAxis) {
  // 2-D with a 6-step time axis: no period probe (< 8 steps) and no bin
  // classification (< 3 dims) -> 2 (perm) x 2 (fusion) x 2 (fitting) = 8.
  NdArray<float> data(Shape({6, 200}));
  for (std::size_t t = 0; t < 6; ++t) {
    for (std::size_t x = 0; x < 200; ++x) {
      data[t * 200 + x] =
          static_cast<float>(std::sin(0.05 * static_cast<double>(x)) +
                             0.1 * static_cast<double>(t));
    }
  }
  AutotuneOptions opts;
  opts.sampling_rate = 0.5;
  const auto result = autotune(data, 1e-3, nullptr, opts);
  EXPECT_FALSE(result.period.has_value());
  ASSERT_EQ(result.candidates.size(), 8u);
  for (const auto& c : result.candidates) {
    EXPECT_FALSE(c.config.classify_bins);
    EXPECT_EQ(c.config.period, 0u);
  }
}

TEST(Autotune, RepeatedRunsPickTheSameConfig) {
  // No seed option: the sampling and the period probe are fixed, so two
  // runs on the same data rank the grid identically.
  auto field = make_ssh(0.12, 508);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto a = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  const auto b = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_predictor, b.best_predictor);
  EXPECT_EQ(a.best_entropy, b.best_entropy);
  EXPECT_EQ(a.sample_points, b.sample_points);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].config, b.candidates[i].config);
    EXPECT_EQ(a.candidates[i].estimated_ratio, b.candidates[i].estimated_ratio);
  }
}

TEST(Autotune, BestConfigCompressesFullDataWithinBound) {
  auto field = make_ssh(0.12, 504);
  AutotuneOptions opts;
  opts.sampling_rate = 0.02;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  const ClizCompressor codec(result.best);
  const auto stream = codec.compress(field.data, 1e-3, field.mask_ptr());
  const auto recon = ClizCompressor::decompress(stream);
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, 1e-3);
}

TEST(Autotune, PeriodicPipelineChosenForStronglySeasonalData) {
  auto field = make_ssh(0.12, 505);
  AutotuneOptions opts;
  opts.sampling_rate = 0.05;
  const auto result = autotune(field.data, 1e-3, field.mask_ptr(), opts);
  EXPECT_EQ(result.best.period, 12u);
}

TEST(Autotune, LowerSamplingRateIsFaster) {
  auto field = make_ssh(0.2, 506);
  AutotuneOptions coarse;
  coarse.sampling_rate = 0.001;
  AutotuneOptions fine;
  fine.sampling_rate = 0.1;
  const auto r_coarse = autotune(field.data, 1e-3, field.mask_ptr(), coarse);
  const auto r_fine = autotune(field.data, 1e-3, field.mask_ptr(), fine);
  EXPECT_LT(r_coarse.tuning_seconds, r_fine.tuning_seconds);
  EXPECT_LT(r_coarse.sample_points, r_fine.sample_points);
}

}  // namespace
}  // namespace cliz
