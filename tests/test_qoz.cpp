#include "src/baselines/qoz/qoz.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"
#include "src/baselines/sz3/sz3.hpp"

namespace cliz {
namespace {

/// Field that is much smoother along the last dim than the first, so order
/// tuning has something to find.
NdArray<float> anisotropic_array(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 10.0 * std::sin(1.1 * static_cast<double>(c[0]));
    for (std::size_t d = 1; d < c.size(); ++d) {
      v += 2.0 * std::sin(0.03 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return a;
}

struct QozCase {
  DimVec dims;
  double eb;
};

class QozRoundTrip : public ::testing::TestWithParam<QozCase> {};

TEST_P(QozRoundTrip, BoundHoldsEverywhere) {
  const auto& [dims, eb] = GetParam();
  const auto data = anisotropic_array(dims, 21);
  const auto stream = QozCompressor().compress(data, eb);
  const auto recon = QozCompressor::decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QozRoundTrip,
    ::testing::Values(QozCase{{128}, 1e-3}, QozCase{{40, 44}, 1e-2},
                      QozCase{{40, 44}, 1e-4}, QozCase{{12, 18, 22}, 1e-3},
                      QozCase{{12, 18, 22}, 1e-1},
                      QozCase{{5, 6, 7, 4}, 1e-3}));

TEST(Qoz, OrderTuningBeatsStorageOrderOnAnisotropicData) {
  // Rough first dimension: storage-order SZ3 interpolates along it last
  // (cheaply) anyway, so build the adversarial case: rough LAST dimension.
  const Shape shape({32, 32, 32});
  NdArray<float> data(shape);
  Rng rng(31);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    data[i] = static_cast<float>(
        10.0 * std::sin(1.3 * static_cast<double>(c[2])) +
        std::sin(0.05 * static_cast<double>(c[0])) +
        std::sin(0.05 * static_cast<double>(c[1])) + 0.005 * rng.normal());
  }
  Sz3Options sopts;
  sopts.force_fitting = true;
  sopts.fitting = FittingKind::kCubic;
  const auto sz3 = Sz3Compressor(sopts).compress(data, 1e-3);
  const auto qoz = QozCompressor().compress(data, 1e-3);
  EXPECT_LT(qoz.size(), sz3.size());
}

TEST(Qoz, DisablingOrderTuningStillRoundTrips) {
  QozOptions opts;
  opts.tune_order = false;
  const auto data = anisotropic_array({24, 24}, 5);
  const auto stream = QozCompressor(opts).compress(data, 1e-3);
  const auto recon = QozCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

TEST(Qoz, PerPassFittingMixesKinds) {
  // A field cubic-friendly along one axis and noisy along another should
  // exercise both fitting kinds across passes; correctness is what we
  // assert (the stream stores one bit per pass).
  const Shape shape({64, 64});
  NdArray<float> data(shape);
  Rng rng(77);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    const double t = static_cast<double>(c[1]) / 63.0;
    data[i] = static_cast<float>(t * t * t +
                                 0.3 * rng.normal() *
                                     (c[0] % 2 == 0 ? 1.0 : 0.0));
  }
  const auto stream = QozCompressor().compress(data, 1e-2);
  const auto recon = QozCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-2);
}

TEST(Qoz, DeterministicOutput) {
  const auto data = anisotropic_array({20, 20}, 9);
  EXPECT_EQ(QozCompressor().compress(data, 1e-3),
            QozCompressor().compress(data, 1e-3));
}

TEST(Qoz, CorruptStreamThrows) {
  const auto data = anisotropic_array({16, 16}, 2);
  auto stream = QozCompressor().compress(data, 1e-3);
  stream.resize(stream.size() / 2);
  EXPECT_THROW((void)QozCompressor::decompress(stream), Error);
}

TEST(Qoz, RejectsNonPositiveBound) {
  const auto data = anisotropic_array({8, 8}, 3);
  EXPECT_THROW((void)QozCompressor().compress(data, 0.0), Error);
}

}  // namespace
}  // namespace cliz
